package apps

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/graphgen"
	"commtm/internal/workloads/inputs"
)

// Boruvka computes the minimum spanning forest of a road-network-like graph
// with Borůvka rounds, written from scratch like the paper's version and
// using its four commutative operations (Table II):
//
//   - OPUT: each live edge updates the min-weight-edge descriptor of both
//     endpoint components (64-bit key = weight·2^20 | edge id, so keys are
//     distinct and each component's choice is unique);
//   - MIN: components hook onto neighbours through MIN-labeled parent
//     updates (concurrent hooks keep the smallest root);
//   - MAX: chosen edges are marked in the MST with MAX-labeled stores;
//   - ADD: the forest weight and edge count accumulate under ADD.
//
// Distinct keys make the per-round candidate edge set acyclic (a component's
// minimum crossing edge is minimal for every cut it crosses), so every
// non-duplicate candidate is an MST edge and every union succeeds; the only
// duplicates are mutual pairs (two components choosing the same edge),
// deduplicated symmetrically by reading both descriptors. A host-side
// union-find mirror applies the unions authoritatively between phases (at
// zero simulated cost — it stands in for per-thread bookkeeping) and the
// compressed parents are written back in parallel.
type Boruvka struct {
	W, H int
	Keep float64
	Seed uint64

	threads int
	oput    commtm.LabelID
	min     commtm.LabelID
	max     commtm.LabelID
	add     commtm.LabelID
	inputs  *inputs.Arena

	g          *graphgen.Graph
	parentA    commtm.Addr
	minEdgeA   commtm.Addr // one line per vertex: {key, eid}
	markA      commtm.Addr // one word per edge
	weightA    commtm.Addr // {weight, count}
	wantWeight uint64
	wantEdges  int

	// Host-side round state (engine scheduling serializes all access).
	uf     []int
	active []int
	chosen []uint64 // eid+1 per component, 0 = none
	dead   []bool
	inMST  []bool
	done   bool
	rounds int
}

// NewBoruvka builds the workload over a w×h road network.
func NewBoruvka(w, h int, keep float64, seed uint64) *Boruvka {
	return &Boruvka{W: w, H: h, Keep: keep, Seed: seed}
}

// BoruvkaName is the workload's registry/row name.
const BoruvkaName = "boruvka"

// Name implements harness.Workload.
func (b *Boruvka) Name() string { return BoruvkaName }

// UseInputs implements inputs.User.
func (b *Boruvka) UseInputs(a *inputs.Arena) { b.inputs = a }

const oputIdentity = ^uint64(0)

// boruvkaInput is the machine-independent generated input: the road
// network and its Kruskal reference forest. The graph is read-only during
// runs; every mutable round structure (union-find mirror, liveness bitmaps)
// is rebuilt per Setup.
type boruvkaInput struct {
	g          *graphgen.Graph
	wantWeight uint64
	wantEdges  int
}

// Setup implements harness.Workload.
func (b *Boruvka) Setup(m *commtm.Machine) {
	b.threads = m.Config().Threads
	b.oput = m.DefineLabel(commtm.OPutLabel("OPUT"))
	b.min = m.DefineLabel(commtm.MinLabel("MIN"))
	b.max = m.DefineLabel(commtm.MaxLabel("MAX"))
	b.add = m.DefineLabel(commtm.AddLabel("ADD"))

	in := inputs.Load(b.inputs,
		inputs.Key{Kind: BoruvkaName, Params: fmt.Sprintf("w=%d h=%d keep=%g", b.W, b.H, b.Keep), Seed: b.Seed},
		func() *boruvkaInput {
			g := graphgen.RoadNetwork(b.W, b.H, b.Keep, b.Seed)
			w, e := graphgen.KruskalMST(g)
			return &boruvkaInput{g: g, wantWeight: w, wantEdges: e}
		})
	b.g, b.wantWeight, b.wantEdges = in.g, in.wantWeight, in.wantEdges

	v, e := b.g.V, len(b.g.Edges)
	b.parentA = m.AllocLines((v*8 + commtm.LineBytes - 1) / commtm.LineBytes)
	b.minEdgeA = m.AllocLines(v)
	b.markA = m.AllocLines((e*8 + commtm.LineBytes - 1) / commtm.LineBytes)
	b.weightA = m.AllocLines(1)
	for i := 0; i < v; i++ {
		m.MemWrite64(b.parentA+commtm.Addr(i*8), uint64(i))
		m.MemWrite64(b.minEdgeA+commtm.Addr(i*commtm.LineBytes), oputIdentity)
	}

	b.uf = make([]int, v)
	for i := range b.uf {
		b.uf[i] = i
	}
	b.active = make([]int, v)
	for i := range b.active {
		b.active[i] = i
	}
	b.chosen = make([]uint64, v)
	b.dead = make([]bool, e)
	b.inMST = make([]bool, e)
}

// Params implements sweep.Parameterized.
func (b *Boruvka) Params() (string, bool) {
	return fmt.Sprintf("w=%d h=%d keep=%g wseed=%d", b.W, b.H, b.Keep, b.Seed), true
}

func (b *Boruvka) find(x int) int {
	for b.uf[x] != x {
		b.uf[x] = b.uf[b.uf[x]]
		x = b.uf[x]
	}
	return x
}

func (b *Boruvka) minLine(c int) commtm.Addr {
	return b.minEdgeA + commtm.Addr(c*commtm.LineBytes)
}

func key(e graphgen.Edge, eid int) uint64 { return e.Weight<<20 | uint64(eid) }

// Body implements harness.Workload.
func (b *Boruvka) Body(t *commtm.Thread) {
	id := t.ID()
	for !b.done {
		b.phase1(t, id)
		t.Barrier()
		prevActive := b.active
		b.phase2(t, id, prevActive)
		t.Barrier()
		if id == 0 {
			b.phase3Sequential()
		}
		t.Barrier()
		b.phase3Parallel(t, id, prevActive)
		t.Barrier()
	}
}

// phase1 posts every live edge to both endpoint components' min-edge
// descriptors with OPUT operations.
func (b *Boruvka) phase1(t *commtm.Thread, id int) {
	e := b.g.Edges
	lo, hi := len(e)*id/b.threads, len(e)*(id+1)/b.threads
	for i := lo; i < hi; i++ {
		if b.dead[i] || b.inMST[i] {
			continue
		}
		t.Cycles(15)
		cu := int(t.Load64(b.parentA + commtm.Addr(e[i].U*8)))
		cv := int(t.Load64(b.parentA + commtm.Addr(e[i].V*8)))
		if cu == cv {
			b.dead[i] = true
			continue
		}
		k := key(e[i], i)
		t.Txn(func() {
			for _, c := range [2]int{cu, cv} {
				a := b.minLine(c)
				if cur := t.LoadL(a, b.oput); k < cur {
					t.StoreL(a, b.oput, k)
					t.StoreL(a+8, b.oput, uint64(i))
				}
			}
		})
	}
}

// phase2 lets each component read its chosen edge (triggering a reduction
// of the OPUT partials), mark and account it (MAX + ADD) unless it loses
// the mutual-pair tiebreak, and hook toward its neighbour (MIN).
func (b *Boruvka) phase2(t *commtm.Thread, id int, active []int) {
	lo, hi := len(active)*id/b.threads, len(active)*(id+1)/b.threads
	// Weight/count contributions accumulate per thread and flush once per
	// round — the ADD label still coalesces the flushes from all threads.
	var wsum, ncnt uint64
	for _, c := range active[lo:hi] {
		k := t.Load64(b.minLine(c))
		if k == oputIdentity {
			continue
		}
		eid := int(t.Load64(b.minLine(c) + 8))
		e := b.g.Edges[eid]
		cu, cv := b.find(e.U), b.find(e.V)
		other := cu
		if other == c {
			other = cv
		}
		okey := t.Load64(b.minLine(other))
		mutual := okey != oputIdentity && int(t.Load64(b.minLine(other)+8)) == eid
		if !mutual || c < other {
			t.Txn(func() {
				ma := b.markA + commtm.Addr(eid*8)
				if cur := t.LoadL(ma, b.max); cur < 1 {
					t.StoreL(ma, b.max, 1)
				}
			})
			wsum += e.Weight
			ncnt++
			b.inMST[eid] = true
		}
		t.Cycles(10)
		// MIN hook: the larger root hooks toward the smaller.
		hiC, loC := c, other
		if hiC < loC {
			hiC, loC = loC, hiC
		}
		pa := b.parentA + commtm.Addr(hiC*8)
		t.Txn(func() {
			if cur := t.LoadL(pa, b.min); uint64(loC) < cur {
				t.StoreL(pa, b.min, uint64(loC))
			}
		})
		b.chosen[c] = uint64(eid) + 1
	}
	if ncnt != 0 {
		t.Txn(func() {
			w := t.LoadL(b.weightA, b.add)
			t.StoreL(b.weightA, b.add, w+wsum)
			n := t.LoadL(b.weightA+8, b.add)
			t.StoreL(b.weightA+8, b.add, n+ncnt)
		})
	}
}

// phase3Sequential applies all candidate unions on the host mirror (no
// simulated cost: this models per-core bookkeeping, and the acyclicity of
// the candidate set means no union ever fails except mutual duplicates).
func (b *Boruvka) phase3Sequential() {
	b.rounds++
	var next []int
	any := false
	for _, c := range b.active {
		if b.chosen[c] == 0 {
			continue
		}
		any = true
		eid := int(b.chosen[c] - 1)
		e := b.g.Edges[eid]
		ru, rv := b.find(e.U), b.find(e.V)
		if ru != rv {
			if rv < ru {
				ru, rv = rv, ru
			}
			b.uf[rv] = ru
		}
		b.chosen[c] = 0
	}
	seen := map[int]bool{}
	for _, c := range b.active {
		r := b.find(c)
		if !seen[r] {
			seen[r] = true
			next = append(next, r)
		}
	}
	b.active = next
	b.done = !any
}

// phase3Parallel writes the compressed union-find back to simulated memory
// and resets the processed min-edge descriptors for the next round.
func (b *Boruvka) phase3Parallel(t *commtm.Thread, id int, prevActive []int) {
	v := b.g.V
	lo, hi := v*id/b.threads, v*(id+1)/b.threads
	for x := lo; x < hi; x++ {
		t.Store64(b.parentA+commtm.Addr(x*8), uint64(b.find(x)))
	}
	la, ha := len(prevActive)*id/b.threads, len(prevActive)*(id+1)/b.threads
	for _, c := range prevActive[la:ha] {
		t.Store64(b.minLine(c), oputIdentity)
		t.Store64(b.minLine(c)+8, 0)
	}
}

// Validate implements harness.Workload.
func (b *Boruvka) Validate(m *commtm.Machine) error {
	gotW := m.MemRead64(b.weightA)
	gotN := int(m.MemRead64(b.weightA + 8))
	if gotW != b.wantWeight || gotN != b.wantEdges {
		return fmt.Errorf("MSF = (%d, %d edges), Kruskal reference = (%d, %d edges)",
			gotW, gotN, b.wantWeight, b.wantEdges)
	}
	marked := 0
	for eid := range b.g.Edges {
		mark := m.MemRead64(b.markA + commtm.Addr(eid*8))
		in := b.inMST[eid]
		if in && mark != 1 {
			return fmt.Errorf("edge %d in MST but unmarked", eid)
		}
		if !in && mark != 0 {
			return fmt.Errorf("edge %d marked but not in MST", eid)
		}
		if in {
			marked++
		}
	}
	if marked != b.wantEdges {
		return fmt.Errorf("marked %d edges, want %d", marked, b.wantEdges)
	}
	return nil
}
