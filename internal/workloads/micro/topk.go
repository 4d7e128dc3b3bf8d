package micro

import (
	"fmt"
	"sort"

	"commtm"
	"commtm/internal/workloads/inputs"
)

// TopK is the Sec. VI top-K set microbenchmark (Figs. 14–15): threads
// insert values into a set that retains the K highest. A descriptor line
// (TOPK label) holds a pointer to the top-K data, stored as a size-K
// min-heap whose root is the smallest retained element; an insert replaces
// the root when the new value is larger. On CommTM threads build local
// heaps under U state and reads trigger a reduction that merges them
// (Fig. 15); on the baseline the shared heap serializes every insert.
type TopK struct {
	Ops int
	K   int

	threads int
	label   commtm.LabelID
	dsc     commtm.Addr // words {heapBase, size}

	// arenas[tid] are spare heap blocks: a thread adopts a fresh block each
	// time its partial descriptor is empty (identity), since reduced-away
	// blocks are owned by the merged heap.
	arenas  [][]commtm.Addr
	arenaAt []int

	inputs   *inputs.Arena
	replay   bool       // inserted holds a cached stream; Body must not append
	inserted [][]uint64 // per-thread inserted values (Validate's reference)
}

// NewTopK builds the workload (paper: 10M inserts, K=1000).
func NewTopK(ops, k int) *TopK {
	if k <= 0 {
		k = 1000
	}
	return &TopK{Ops: ops, K: k}
}

// TopKName is the workload's registry/row name.
const TopKName = "topk"

// Name implements harness.Workload.
func (tk *TopK) Name() string { return TopKName }

// UseInputs implements inputs.User.
func (tk *TopK) UseInputs(a *inputs.Arena) { tk.inputs = a }

// topkInput is the cached op stream: each thread's inserted values,
// precomputed with commtm.ArchRand so replay equals the live Thread.Rand
// draws bit for bit. The streams double as Validate's inserted-values
// reference. Read-only after generation.
type topkInput struct {
	streams [][]uint64
}

// arenaBlocks bounds how many times one thread can restart a partial heap
// (one per reduction it loses plus one initial). Reductions happen only on
// reads and rare evictions, so a small arena suffices.
const arenaBlocks = 64

// Setup implements harness.Workload.
func (tk *TopK) Setup(m *commtm.Machine) {
	tk.threads = m.Config().Threads
	tk.label = m.DefineLabel(tk.labelSpec())
	tk.dsc = m.AllocLines(1)
	tk.arenas = make([][]commtm.Addr, tk.threads)
	tk.arenaAt = make([]int, tk.threads)
	for i := 0; i < tk.threads; i++ {
		tk.arenas[i] = make([]commtm.Addr, arenaBlocks)
		for j := range tk.arenas[i] {
			tk.arenas[i][j] = m.Alloc(tk.K*8, commtm.LineBytes)
		}
	}
	if tk.inputs != nil {
		seed := m.Config().Seed
		in := inputs.Load(tk.inputs,
			inputs.Key{Kind: TopKName, Params: fmt.Sprintf("ops=%d k=%d t=%d", tk.Ops, tk.K, tk.threads), Seed: seed},
			func() *topkInput {
				in := &topkInput{streams: make([][]uint64, tk.threads)}
				for id := 0; id < tk.threads; id++ {
					rng := commtm.ArchRand(seed, id)
					n := share(tk.Ops, tk.threads, id)
					vs := make([]uint64, n)
					for i := range vs {
						vs[i] = rng.Uint64() >> 1 // matches Body's sentinel guard
					}
					in.streams[id] = vs
				}
				return in
			})
		tk.inserted, tk.replay = in.streams, true
		return
	}
	tk.inserted = make([][]uint64, tk.threads)
	tk.replay = false
}

// Params implements sweep.Parameterized.
func (tk *TopK) Params() (string, bool) {
	return fmt.Sprintf("ops=%d k=%d", tk.Ops, tk.K), true
}

// heap helpers over simulated memory through the thread API (transactional)
// — the heap block is thread-private while in U state, so these accesses
// never conflict.

func heapSift(load func(commtm.Addr) uint64, store func(commtm.Addr, uint64), base commtm.Addr, size int) {
	// Sift down from the root of a min-heap stored at base.
	i := 0
	v := load(base)
	for {
		c := 2*i + 1
		if c >= size {
			break
		}
		cv := load(base + commtm.Addr(c*8))
		if c+1 < size {
			if rv := load(base + commtm.Addr((c+1)*8)); rv < cv {
				c, cv = c+1, rv
			}
		}
		if cv >= v {
			break
		}
		store(base+commtm.Addr(i*8), cv)
		i = c
	}
	store(base+commtm.Addr(i*8), v)
}

func heapPush(load func(commtm.Addr) uint64, store func(commtm.Addr, uint64), base commtm.Addr, size int, v uint64) {
	// Sift up a new element appended at index size.
	i := size
	for i > 0 {
		p := (i - 1) / 2
		pv := load(base + commtm.Addr(p*8))
		if pv <= v {
			break
		}
		store(base+commtm.Addr(i*8), pv)
		i = p
	}
	store(base+commtm.Addr(i*8), v)
}

// labelSpec builds the TOPK label: reduction merges the src heap into dst
// (adopting src's block when dst is empty, Fig. 15); no splitter — the
// paper's top-K has no gather use case.
func (tk *TopK) labelSpec() commtm.LabelSpec {
	return commtm.LabelSpec{
		Name: "TOPK",
		Reduce: func(rc *commtm.ReduceCtx, dst, src *commtm.Line) {
			sb, ss := commtm.Addr(src[0]), int(src[1])
			if sb == 0 || ss == 0 {
				return
			}
			if dst[0] == 0 {
				dst[0], dst[1] = src[0], src[1]
				return
			}
			db, ds := commtm.Addr(dst[0]), int(dst[1])
			for i := 0; i < ss; i++ {
				v := rc.Load64(sb + commtm.Addr(i*8))
				if ds < tk.K {
					heapPush(rc.Load64, rc.Store64, db, ds, v)
					ds++
				} else if root := rc.Load64(db); v > root {
					rc.Store64(db, v)
					heapSift(rc.Load64, rc.Store64, db, ds)
				}
			}
			dst[1] = uint64(ds)
		},
		ReduceCost: 20,
	}
}

// insert adds v to the top-K set.
func (tk *TopK) insert(t *commtm.Thread, v uint64) {
	id := t.ID()
	adopted := false
	t.Txn(func() {
		adopted = false
		hb := commtm.Addr(t.LoadL(tk.dsc, tk.label))
		size := int(t.LoadL(tk.dsc+8, tk.label))
		if hb == 0 {
			if tk.arenaAt[id] >= len(tk.arenas[id]) {
				panic("topk: arena exhausted; raise arenaBlocks")
			}
			hb = tk.arenas[id][tk.arenaAt[id]]
			adopted = true
			t.StoreL(tk.dsc, tk.label, uint64(hb))
			size = 0
		}
		if size < tk.K {
			heapPush(t.Load64, t.Store64, hb, size, v)
			t.StoreL(tk.dsc+8, tk.label, uint64(size+1))
			return
		}
		if root := t.Load64(hb); v > root {
			t.Store64(hb, v)
			heapSift(t.Load64, t.Store64, hb, size)
		}
	})
	if adopted {
		tk.arenaAt[id]++ // consume the block only once the adoption commits
	}
}

// Body implements harness.Workload.
func (tk *TopK) Body(t *commtm.Thread) {
	id := t.ID()
	if tk.replay {
		for _, v := range tk.inserted[id] {
			tk.insert(t, v)
		}
		return
	}
	n := share(tk.Ops, tk.threads, id)
	rng := t.Rand()
	for i := 0; i < n; i++ {
		v := rng.Uint64() >> 1 // avoid ^uint64(0) sentinel collisions
		tk.insert(t, v)
		tk.inserted[id] = append(tk.inserted[id], v)
	}
}

// DigestState implements sweep.Digester. The heap's array layout and which
// arena block ends up holding it are schedule-dependent, so the canonical
// state is the sorted multiset of retained values.
func (tk *TopK) DigestState(m *commtm.Machine) uint64 {
	hb := commtm.Addr(m.MemRead64(tk.dsc))
	size := int(m.MemRead64(tk.dsc + 8))
	vals := make([]uint64, 0, size+1)
	vals = append(vals, uint64(size))
	for i := 0; i < size; i++ {
		vals = append(vals, m.MemRead64(hb+commtm.Addr(i*8)))
	}
	sort.Slice(vals[1:], func(i, j int) bool { return vals[1+i] < vals[1+j] })
	return commtm.DigestWords(vals)
}

// Validate implements harness.Workload: the final heap must hold exactly
// the K largest inserted values (as a multiset).
func (tk *TopK) Validate(m *commtm.Machine) error {
	var all []uint64
	for _, vs := range tk.inserted {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	wantN := tk.K
	if len(all) < wantN {
		wantN = len(all)
	}
	want := append([]uint64(nil), all[:wantN]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	hb := commtm.Addr(m.MemRead64(tk.dsc))
	size := int(m.MemRead64(tk.dsc + 8))
	if size != wantN {
		return fmt.Errorf("top-K size = %d, want %d", size, wantN)
	}
	got := make([]uint64, size)
	for i := range got {
		got[i] = m.MemRead64(hb + commtm.Addr(i*8))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("top-K element %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
