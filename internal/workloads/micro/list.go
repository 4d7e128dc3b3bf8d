package micro

import (
	"fmt"
	"sort"

	"commtm"
	"commtm/internal/workloads/inputs"
)

// List is the Sec. VI linked-list microbenchmark (Figs. 11–12): threads
// enqueue and dequeue elements of a singly linked list used as an unordered
// set, so the operations commute semantically but not strictly.
//
// On CommTM only the list descriptor (head and tail pointers, one line) is
// accessed with labeled operations: each cache builds a private partial
// list; the reduction handler concatenates partial lists; dequeues from an
// empty partial gather the head element of another cache's partial
// (Fig. 11b). On the baseline the head and tail pointers live on separate
// lines (as the paper does, to avoid false sharing) and every operation
// conflicts.
type List struct {
	Ops        int     // total operations across all threads
	DeqFrac    float64 // fraction of dequeues (0 = Fig. 12a, 0.5 = Fig. 12b)
	Prime      int     // initial enqueues per thread (-1 = auto-scale)
	commtmMode bool

	threads int
	label   commtm.LabelID
	inputs  *inputs.Arena
	deqOps  [][]bool    // cached per-thread dequeue decisions (nil = draw live)
	dsc     commtm.Addr // CommTM: words {head, tail}
	headA   commtm.Addr // baseline: head on its own line
	tailA   commtm.Addr // baseline: tail on its own line

	// Per-thread node pools, carved in Setup so allocation inside
	// transactions is a pointer bump.
	pools   []commtm.Addr
	poolOff []int

	enqueued  [][]uint64 // per-thread values enqueued
	dequeued  [][]uint64 // per-thread values dequeued
	failedDeq []int      // per-thread dequeue attempts that found the list empty
}

// NewList builds the workload; deqFrac is the dequeue fraction. Mixed
// workloads pre-populate the queue with primePerThread elements per thread:
// the paper's 10M-operation runs spend almost all their time in a populated
// steady state (a reflected random walk accumulates O(sqrt(ops)) elements),
// and priming lets scaled-down runs start there instead of in the
// everything-empty transient, preserving the steady-state behaviour the
// figure measures.
func NewList(ops int, deqFrac float64) *List {
	return &List{Ops: ops, DeqFrac: deqFrac, Prime: -1}
}

// ListEnqName and ListMixedName are the workload's registry/row names for
// the enqueue-only and mixed configurations.
const (
	ListEnqName   = "list-enq"
	ListMixedName = "list-mixed"
)

// ListName returns the registry/row name of a list workload with the given
// dequeue fraction — the same rule Name applies, usable without an instance.
func ListName(deqFrac float64) string {
	if deqFrac == 0 {
		return ListEnqName
	}
	return ListMixedName
}

// Name implements harness.Workload.
func (l *List) Name() string { return ListName(l.DeqFrac) }

// UseInputs implements inputs.User.
func (l *List) UseInputs(a *inputs.Arena) { l.inputs = a }

// listInput is the cached op stream: each thread's enqueue/dequeue
// decisions, precomputed with commtm.ArchRand so replay equals the live
// Thread.Rand draws bit for bit. The enqueued values themselves are
// sequence numbers (no randomness) and the enqueued/dequeued multisets are
// run outputs, so only the decision stream is cacheable. Read-only after
// generation.
type listInput struct {
	deq [][]bool
}

// nodeBytes: each node is {value, next}, padded to a full line so nodes of
// different threads never share a line.
const nodeBytes = commtm.LineBytes

// Setup implements harness.Workload.
func (l *List) Setup(m *commtm.Machine) {
	l.threads = m.Config().Threads
	l.commtmMode = m.Config().Protocol == commtm.CommTM
	if l.Prime < 0 {
		l.Prime = 0
		if l.DeqFrac > 0 {
			// Cushion each thread's partial list against its dequeue random
			// walk so scaled-down runs sit in the populated steady state.
			deqPerThread := int(float64(l.Ops)*l.DeqFrac) / l.threads
			l.Prime = deqPerThread / 4
			if l.Prime < 16 {
				l.Prime = 16
			}
			if l.Prime > 128 {
				l.Prime = 128
			}
		}
	}
	if l.inputs != nil {
		seed := m.Config().Seed
		in := inputs.Load(l.inputs,
			inputs.Key{Kind: "list", Params: fmt.Sprintf("ops=%d deq=%g t=%d", l.Ops, l.DeqFrac, l.threads), Seed: seed},
			func() *listInput {
				in := &listInput{deq: make([][]bool, l.threads)}
				for id := 0; id < l.threads; id++ {
					rng := commtm.ArchRand(seed, id)
					n := share(l.Ops, l.threads, id)
					ds := make([]bool, n)
					for i := range ds {
						ds[i] = rng.Float64() < l.DeqFrac
					}
					in.deq[id] = ds
				}
				return in
			})
		l.deqOps = in.deq
	}
	l.label = m.DefineLabel(listLabelSpec())
	l.dsc = m.AllocLines(1)
	l.headA = m.AllocLines(1)
	l.tailA = m.AllocLines(1)
	l.pools = make([]commtm.Addr, l.threads)
	l.poolOff = make([]int, l.threads)
	l.enqueued = make([][]uint64, l.threads)
	l.dequeued = make([][]uint64, l.threads)
	l.failedDeq = make([]int, l.threads)
	for i := 0; i < l.threads; i++ {
		n := share(l.Ops, l.threads, i) + l.Prime + 1
		l.pools[i] = m.Alloc(n*nodeBytes, commtm.LineBytes)
	}
}

// Params implements sweep.Parameterized. Prime is included as the
// constructor-set value (-1 = auto-scale): Setup derives the effective
// priming from it deterministically.
func (l *List) Params() (string, bool) {
	return fmt.Sprintf("ops=%d deq=%g prime=%d", l.Ops, l.DeqFrac, l.Prime), true
}

// nodeAddr reserves the next node slot for this thread. Called outside the
// transaction so aborted attempts do not leak pool slots.
func (l *List) nodeAddr(t *commtm.Thread) commtm.Addr {
	id := t.ID()
	a := l.pools[id] + commtm.Addr(l.poolOff[id]*nodeBytes)
	l.poolOff[id]++
	return a
}

// enqueue appends val. CommTM: labeled descriptor ops build a local partial
// list. Baseline: conventional ops on the shared head/tail lines.
func (l *List) enqueue(t *commtm.Thread, val uint64) {
	if l.commtmMode {
		node := l.nodeAddr(t)
		t.Txn(func() {
			t.Store64(node, val)
			t.Store64(node+8, 0)
			h := t.LoadL(l.dsc, l.label)
			tl := t.LoadL(l.dsc+8, l.label)
			if h == 0 {
				t.StoreL(l.dsc, l.label, uint64(node))
			} else {
				t.Store64(commtm.Addr(tl)+8, uint64(node)) // old tail.next
			}
			t.StoreL(l.dsc+8, l.label, uint64(node))
		})
		return
	}
	node := l.nodeAddr(t)
	t.Txn(func() {
		t.Store64(node, val)
		t.Store64(node+8, 0)
		tl := t.Load64(l.tailA)
		if tl == 0 {
			t.Store64(l.headA, uint64(node))
		} else {
			t.Store64(commtm.Addr(tl)+8, uint64(node))
		}
		t.Store64(l.tailA, uint64(node))
	})
}

// dequeue removes one element; ok reports whether the list was non-empty.
func (l *List) dequeue(t *commtm.Thread) (val uint64, ok bool) {
	if l.commtmMode {
		t.Txn(func() {
			ok = false
			h := t.LoadL(l.dsc, l.label)
			if h == 0 {
				h = t.LoadGather(l.dsc, l.label)
				if h == 0 {
					h = t.Load64(l.dsc) // full reduction
					if h == 0 {
						return
					}
				}
			}
			next := t.Load64(commtm.Addr(h) + 8)
			t.StoreL(l.dsc, l.label, next)
			if next == 0 {
				t.StoreL(l.dsc+8, l.label, 0)
			}
			val = t.Load64(commtm.Addr(h))
			ok = true
		})
		return val, ok
	}
	t.Txn(func() {
		ok = false
		h := t.Load64(l.headA)
		if h == 0 {
			return
		}
		next := t.Load64(commtm.Addr(h) + 8)
		t.Store64(l.headA, next)
		if next == 0 {
			t.Store64(l.tailA, 0)
		}
		val = t.Load64(commtm.Addr(h))
		ok = true
	})
	return val, ok
}

// opSetupCycles models the per-iteration work outside the transaction
// (operation selection, node preparation, bookkeeping) of the benchmark
// loop — on an IPC-1 core these instructions take tens of cycles and bound
// the fraction of time a thread's descriptor sits in a live transaction.
const listSetupCycles = 50

// Body implements harness.Workload.
func (l *List) Body(t *commtm.Thread) {
	id := t.ID()
	n := share(l.Ops, l.threads, id)
	rng := t.Rand()
	for i := 0; i < l.Prime; i++ {
		v := uint64(id)<<32 | uint64(len(l.enqueued[id]))
		l.enqueue(t, v)
		l.enqueued[id] = append(l.enqueued[id], v)
	}
	for i := 0; i < n; i++ {
		t.Cycles(listSetupCycles)
		deq := false
		if l.deqOps != nil {
			deq = l.deqOps[id][i]
		} else {
			deq = rng.Float64() < l.DeqFrac
		}
		if deq {
			if v, ok := l.dequeue(t); ok {
				l.dequeued[id] = append(l.dequeued[id], v)
			} else {
				l.failedDeq[id]++
			}
			continue
		}
		v := uint64(id)<<32 | uint64(len(l.enqueued[id]))
		l.enqueue(t, v)
		l.enqueued[id] = append(l.enqueued[id], v)
	}
}

// remaining walks the final list and returns its values. The walk is
// bounded by the total enqueue count: a longer list means corrupted
// linkage (a cycle), reported as an error.
func (l *List) remaining(m *commtm.Machine) ([]uint64, error) {
	head := l.headA
	if l.commtmMode {
		head = l.dsc
	}
	total := 0
	for i := 0; i < l.threads; i++ {
		total += len(l.enqueued[i])
	}
	var vals []uint64
	for p := m.MemRead64(head); p != 0; p = m.MemRead64(commtm.Addr(p) + 8) {
		vals = append(vals, m.MemRead64(commtm.Addr(p)))
		if len(vals) > total {
			return nil, fmt.Errorf("list longer than total enqueues (%d): cycle?", total)
		}
	}
	return vals, nil
}

// DigestState implements sweep.Digester. Raw final memory is
// schedule-dependent (node linkage and pool usage differ per protocol), so
// the canonical state is the remaining list contents: for enqueue-only runs
// the sorted multiset of remaining values (identical across protocols — the
// enqueued values depend only on the per-thread RNG). For mixed runs,
// *which* values were dequeued — and even how many, once a dequeue finds
// the list empty — is a legitimate nondeterministic choice of semantically
// commutative schedules; the exact protocol-invariant quantity is
// remaining − failedDequeues = enqueues − dequeueAttempts, both sides of
// which depend only on the per-thread RNG, at any scale.
func (l *List) DigestState(m *commtm.Machine) uint64 {
	vals, err := l.remaining(m)
	if err != nil {
		// Validate reports the corruption; digest it distinctly so a broken
		// list can never collide with a healthy variant's digest.
		return commtm.DigestWords([]uint64{^uint64(0)})
	}
	if l.DeqFrac > 0 {
		failed := 0
		for _, f := range l.failedDeq {
			failed += f
		}
		return commtm.DigestWords([]uint64{uint64(int64(len(vals)) - int64(failed))})
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return commtm.DigestWords(append([]uint64{uint64(len(vals))}, vals...))
}

// Validate implements harness.Workload: the multiset of enqueued values
// must equal dequeued values plus the remaining list contents, and the
// remaining list must be well formed.
func (l *List) Validate(m *commtm.Machine) error {
	var want, got []uint64
	for i := 0; i < l.threads; i++ {
		want = append(want, l.enqueued[i]...)
		got = append(got, l.dequeued[i]...)
	}
	rem, err := l.remaining(m)
	if err != nil {
		return err
	}
	got = append(got, rem...)
	if len(want) != len(got) {
		return fmt.Errorf("enqueued %d values, accounted for %d", len(want), len(got))
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("multiset mismatch at %d: %x vs %x", i, want[i], got[i])
		}
	}
	return nil
}
