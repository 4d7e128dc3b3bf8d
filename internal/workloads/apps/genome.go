package apps

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/hashtab"
	"commtm/internal/workloads/inputs"
	"commtm/internal/xrand"
)

// Genome reproduces the transactional behaviour of STAMP genome: phase 1
// deduplicates DNA segments by inserting them into a resizable hash set
// whose remaining-space bounded counter is the contended commutative datum
// (Table II: "remaining-space counter of a resizable hash table, bounded
// 64b ADD" — a gather-request use case); phase 2 matches overlapping
// segments with transactional lookups and builds successor links; phase 3
// rebuilds the sequence.
//
// Substitution note (DESIGN.md): segments are identified by a deterministic
// content hash of their gene position rather than by character-level
// Rabin-Karp matching — duplicate segments in STAMP genome are exact
// restarts at the same position, so position identity preserves the
// dedup/lookup transaction pattern the evaluation measures.
type Genome struct {
	GeneLen, SegLen, NSegs int
	Seed                   uint64

	threads int
	add     commtm.LabelID
	tb      *hashtab.Table
	m       *commtm.Machine
	inputs  *inputs.Arena

	positions int     // number of distinct segment start positions
	drawn     [][]int // per-thread segment draws
	present   []bool  // which positions occur at all (host reference)
	linkA     commtm.Addr
	uniques   int
}

// NewGenome builds the workload (paper input: -g4096 -s64 -n640000).
func NewGenome(geneLen, segLen, nSegs int, seed uint64) *Genome {
	return &Genome{GeneLen: geneLen, SegLen: segLen, NSegs: nSegs, Seed: seed}
}

// GenomeName is the workload's registry/row name.
const GenomeName = "genome"

// Name implements harness.Workload.
func (g *Genome) Name() string { return GenomeName }

// UseInputs implements inputs.User.
func (g *Genome) UseInputs(a *inputs.Arena) { g.inputs = a }

func (g *Genome) segKey(pos int) uint64 { return uint64(pos) + 1 }

// genomeInput is the machine-independent generated input: the per-thread
// segment draws and the host-side presence reference. The draws are
// partitioned by thread count, so the cache key includes it. Read-only
// after generation.
type genomeInput struct {
	drawn   [][]int
	present []bool
	uniques int
}

// Setup implements harness.Workload.
func (g *Genome) Setup(m *commtm.Machine) {
	g.m = m
	g.threads = m.Config().Threads
	g.add = m.DefineLabel(commtm.AddLabel("ADD"))
	g.positions = g.GeneLen - g.SegLen + 1
	// Buckets sized so chains stay short (like STAMP's table); capacity
	// starts at half the unique segments so the run exercises one resize.
	nb := 64
	for nb < g.positions {
		nb *= 2
	}
	g.tb = hashtab.New(m, g.add, nb, g.positions/2+1)
	g.linkA = m.AllocWords(g.positions + 1)

	in := inputs.Load(g.inputs,
		inputs.Key{Kind: GenomeName, Params: fmt.Sprintf("g=%d s=%d n=%d t=%d", g.GeneLen, g.SegLen, g.NSegs, g.threads), Seed: g.Seed},
		func() *genomeInput {
			in := &genomeInput{
				drawn:   make([][]int, g.threads),
				present: make([]bool, g.positions+1),
			}
			for th := 0; th < g.threads; th++ {
				rng := xrand.Derive(g.Seed^0x6e0d3, uint64(th))
				n := share(g.NSegs, g.threads, th)
				in.drawn[th] = make([]int, n)
				for i := range in.drawn[th] {
					pos := rng.Intn(g.positions)
					in.drawn[th][i] = pos
					if !in.present[pos] {
						in.present[pos] = true
						in.uniques++
					}
				}
			}
			return in
		})
	g.drawn, g.present, g.uniques = in.drawn, in.present, in.uniques
}

// Params implements sweep.Parameterized.
func (g *Genome) Params() (string, bool) {
	return fmt.Sprintf("g=%d s=%d n=%d wseed=%d", g.GeneLen, g.SegLen, g.NSegs, g.Seed), true
}

// Body implements harness.Workload.
func (g *Genome) Body(t *commtm.Thread) {
	id := t.ID()
	// Phase 1: segment deduplication. Every unique insert decrements the
	// bounded remaining-space counter.
	for _, pos := range g.drawn[id] {
		t.Cycles(30) // segment hashing
		node := g.tb.NewNode(g.m)
		g.tb.Insert(t, g.segKey(pos), uint64(pos), node)
	}
	t.Barrier()
	// Phase 2: overlap matching. For each owned position, look up the
	// successor segment and link it.
	lo, hi := g.positions*id/g.threads, g.positions*(id+1)/g.threads
	for pos := lo; pos < hi; pos++ {
		if !g.present[pos] || pos+1 >= g.positions || !g.present[pos+1] {
			continue
		}
		t.Cycles(20)
		succ := g.segKey(pos + 1)
		link := g.linkA + commtm.Addr(pos*8)
		t.Txn(func() {
			if p := g.tb.LookupIn(t, succ); p != 0 {
				t.Store64(link, t.Load64(p+8)+1) // successor position + 1
			}
		})
	}
	t.Barrier()
	// Phase 3: thread 0 walks the longest prefix chain (sequence rebuild).
	if id == 0 {
		pos := 0
		for !g.present[pos] && pos < g.positions-1 {
			pos++
		}
		for steps := 0; steps < g.positions; steps++ {
			next := t.Load64(g.linkA + commtm.Addr(pos*8))
			if next == 0 {
				break
			}
			pos = int(next - 1)
		}
	}
}

// Validate implements harness.Workload.
func (g *Genome) Validate(m *commtm.Machine) error {
	// The table holds exactly the distinct drawn positions.
	seen := map[uint64]uint64{}
	g.tb.Walk(m, func(k, v uint64) {
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = v
	})
	count := 0
	for pos, p := range g.present {
		if !p {
			continue
		}
		count++
		v, ok := seen[g.segKey(pos)]
		if !ok {
			return fmt.Errorf("segment at %d missing from table", pos)
		}
		if v != uint64(pos) {
			return fmt.Errorf("segment %d stored value %d", pos, v)
		}
	}
	if len(seen) != count {
		return fmt.Errorf("table has %d entries, want %d (duplicate inserts?)", len(seen), count)
	}
	// Bounded-counter conservation: remaining + live == total capacity.
	rem := m.MemRead64(g.tb.RemainAddr())
	if rem+uint64(count) != g.tb.CapacityTotal() {
		return fmt.Errorf("remaining %d + entries %d != capacity %d (grows=%d)",
			rem, count, g.tb.CapacityTotal(), g.tb.Grows())
	}
	// Links: pos -> pos+1 exactly when both segments exist.
	for pos := 0; pos+1 < g.positions; pos++ {
		want := uint64(0)
		if g.present[pos] && g.present[pos+1] {
			want = uint64(pos) + 2
		}
		if got := m.MemRead64(g.linkA + commtm.Addr(pos*8)); got != want {
			return fmt.Errorf("link[%d] = %d, want %d", pos, got, want)
		}
	}
	return nil
}
