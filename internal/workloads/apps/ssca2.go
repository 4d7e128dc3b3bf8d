package apps

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/graphgen"
	"commtm/internal/workloads/inputs"
)

// SSCA2 reproduces the transactional behaviour of STAMP ssca2 (kernel 1,
// graph construction, plus aggregate graph statistics): threads scan a
// partitioned R-MAT edge list and transactionally bump per-vertex degree
// counters and a handful of global graph-metadata counters (edge count,
// total weight, max-weight histogram bin) — the "modifying global
// information for a graph" ADD operations of Table II. Per-vertex counters
// are barely contended, so (as the paper reports) CommTM and the baseline
// perform nearly identically; the labeled-operation fraction is tiny.
type SSCA2 struct {
	Scale int
	Edges int
	Seed  uint64

	threads int
	add     commtm.LabelID
	g       *graphgen.Graph
	inputs  *inputs.Arena

	degA    commtm.Addr // V shared degree counters
	metaA   commtm.Addr // global metadata: {edges, totalWeight, heavyEdges}
	adjA    commtm.Addr // adjacency fill cursors (phase 3): V cursors
	wantDeg []int
}

// NewSSCA2 builds the workload over an R-MAT graph of 2^scale vertices.
func NewSSCA2(scale, edges int, seed uint64) *SSCA2 {
	return &SSCA2{Scale: scale, Edges: edges, Seed: seed}
}

// SSCA2Name is the workload's registry/row name.
const SSCA2Name = "ssca2"

// Name implements harness.Workload.
func (s *SSCA2) Name() string { return SSCA2Name }

// UseInputs implements inputs.User.
func (s *SSCA2) UseInputs(a *inputs.Arena) { s.inputs = a }

// heavyThreshold classifies edges for the metadata histogram.
const heavyThreshold = 900

// ssca2Input is the machine-independent generated input: the sorted edge
// list and the reference degree counts. Immutable once generated — Body and
// Validate only read it.
type ssca2Input struct {
	g       *graphgen.Graph
	wantDeg []int
}

// Setup implements harness.Workload.
func (s *SSCA2) Setup(m *commtm.Machine) {
	s.threads = m.Config().Threads
	s.add = m.DefineLabel(commtm.AddLabel("ADD"))
	in := inputs.Load(s.inputs,
		inputs.Key{Kind: SSCA2Name, Params: fmt.Sprintf("scale=%d edges=%d", s.Scale, s.Edges), Seed: s.Seed},
		func() *ssca2Input {
			// SSCA2's generator produces clustered, bounded-degree graphs (not
			// the heavy-tailed R-MAT hubs), and STAMP partitions work by source
			// vertex; both keep transactional conflicts rare.
			g := graphgen.Uniform(1<<s.Scale, s.Edges, s.Seed)
			graphgen.SortBySource(g)
			return &ssca2Input{g: g, wantDeg: graphgen.Degrees(g)}
		})
	s.g, s.wantDeg = in.g, in.wantDeg

	// One degree counter per vertex, 8 per line (aligned words), plus a
	// private counting array per thread (STAMP ssca2 builds per-thread
	// buckets and merges; its shared-data transactions are rare).
	s.degA = m.AllocLines((s.g.V*8 + commtm.LineBytes - 1) / commtm.LineBytes)
	s.metaA = m.AllocLines(1)
	s.adjA = m.AllocLines((s.g.V*8 + commtm.LineBytes - 1) / commtm.LineBytes)
}

// Params implements sweep.Parameterized. The workload-private
// generation seed is a constructor parameter, so it is part of the key.
func (s *SSCA2) Params() (string, bool) {
	return fmt.Sprintf("scale=%d edges=%d wseed=%d", s.Scale, s.Edges, s.Seed), true
}

// Body implements harness.Workload.
func (s *SSCA2) Body(t *commtm.Thread) {
	id := t.ID()
	lo := len(s.g.Edges) * id / s.threads
	hi := len(s.g.Edges) * (id + 1) / s.threads
	bump := func(a commtm.Addr, delta uint64) {
		t.StoreL(a, s.add, t.LoadL(a, s.add)+delta)
	}
	// Kernel 1: build degree counts; global metadata accumulates locally
	// and flushes rarely — like STAMP ssca2, whose transactions touch
	// shared global data only a tiny fraction of the time (the paper
	// measures a 5.9e-7 labeled-instruction fraction).
	var nEdges, weight, heavy uint64
	flush := func() {
		t.Txn(func() {
			bump(s.metaA, nEdges)
			bump(s.metaA+8, weight)
			bump(s.metaA+16, heavy)
		})
		nEdges, weight, heavy = 0, 0, 0
	}
	for i := lo; i < hi; i++ {
		e := s.g.Edges[i]
		t.Cycles(60) // edge parsing, index arithmetic, weight generation
		t.Txn(func() {
			bump(s.degA+commtm.Addr(e.U*8), 1)
			bump(s.degA+commtm.Addr(e.V*8), 1)
		})
		nEdges++
		weight += e.Weight
		if e.Weight >= heavyThreshold {
			heavy++
		}
		if nEdges == 1024 {
			flush()
		}
	}
	flush()
	t.Barrier()
	// Cursor phase: prefix bookkeeping over owned vertices (disjoint).
	loV := s.g.V * id / s.threads
	hiV := s.g.V * (id + 1) / s.threads
	for v := loV; v < hiV; v++ {
		d := t.Load64(s.degA + commtm.Addr(v*8))
		t.Store64(s.adjA+commtm.Addr(v*8), d*8)
		t.Cycles(2)
	}
}

// Validate implements harness.Workload.
func (s *SSCA2) Validate(m *commtm.Machine) error {
	var wantW, wantHeavy uint64
	for _, e := range s.g.Edges {
		wantW += e.Weight
		if e.Weight >= heavyThreshold {
			wantHeavy++
		}
	}
	if got := m.MemRead64(s.metaA); got != uint64(len(s.g.Edges)) {
		return fmt.Errorf("edge count = %d, want %d", got, len(s.g.Edges))
	}
	if got := m.MemRead64(s.metaA + 8); got != wantW {
		return fmt.Errorf("total weight = %d, want %d", got, wantW)
	}
	if got := m.MemRead64(s.metaA + 16); got != wantHeavy {
		return fmt.Errorf("heavy edges = %d, want %d", got, wantHeavy)
	}
	for v, want := range s.wantDeg {
		if got := m.MemRead64(s.degA + commtm.Addr(v*8)); got != uint64(want) {
			return fmt.Errorf("degree[%d] = %d, want %d", v, got, want)
		}
		if got := m.MemRead64(s.adjA + commtm.Addr(v*8)); got != uint64(want*8) {
			return fmt.Errorf("cursor[%d] = %d, want %d", v, got, want*8)
		}
	}
	return nil
}
