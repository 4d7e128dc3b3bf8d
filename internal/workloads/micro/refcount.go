package micro

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/inputs"
)

// Refcount is the Sec. VI reference-counting microbenchmark (Fig. 10):
// threads acquire and release references to 16 shared objects whose
// reference counts are non-negative bounded counters (Sec. IV). Increments
// always commute; decrements commute only while the count is positive, so
// CommTM decrements first try the local partial, then a gather request,
// then a full reduction. Each thread starts with three references per
// object and holds at most ten; the probability of acquiring decreases
// linearly with held references (1.0 at 0 held, 0.0 at 10 held).
type Refcount struct {
	Ops     int // total acquire/release operations across all threads
	Objects int // shared reference counters (paper: 16)

	threads int
	add     commtm.LabelID
	ctrs    []commtm.Addr
	inputs  *inputs.Arena
	ops     [][]refcountOp // cached per-thread op streams (nil = draw live)
	held    [][]int        // [thread][object] references held at the end
}

// NewRefcount builds the workload; objects <= 0 defaults to the paper's 16.
func NewRefcount(ops, objects int) *Refcount {
	if objects <= 0 {
		objects = 16
	}
	return &Refcount{Ops: ops, Objects: objects}
}

// RefcountName is the workload's registry/row name.
const RefcountName = "refcount"

// Name implements harness.Workload.
func (r *Refcount) Name() string { return RefcountName }

// UseInputs implements inputs.User.
func (r *Refcount) UseInputs(a *inputs.Arena) { r.inputs = a }

const (
	refStart   = 3  // initial references per thread per object
	refMaxHeld = 10 // max references a thread holds to one object
)

// refcountOp is one replayed operation of the cached stream.
type refcountOp struct {
	obj  int32
	kind uint8 // refSkip, refAcquire, refRelease
}

const (
	refSkip uint8 = iota
	refAcquire
	refRelease
)

// refcountInput is the cached op stream: the held-count evolution is a pure
// function of the per-thread architectural RNG (acquire probability depends
// only on prior decisions), so the whole decision sequence — and the final
// held counts Validate sums — precomputes with commtm.ArchRand, draw for
// draw equal to the live Body. Read-only after generation.
type refcountInput struct {
	ops  [][]refcountOp
	held [][]int // final held counts
}

// Setup implements harness.Workload.
func (r *Refcount) Setup(m *commtm.Machine) {
	r.threads = m.Config().Threads
	r.add = m.DefineLabel(commtm.AddLabel("ADD"))
	r.ctrs = make([]commtm.Addr, r.Objects)
	for i := range r.ctrs {
		r.ctrs[i] = m.AllocLines(1)
		m.MemWrite64(r.ctrs[i], uint64(refStart*r.threads))
	}
	if r.inputs != nil {
		seed := m.Config().Seed
		in := inputs.Load(r.inputs,
			inputs.Key{Kind: RefcountName, Params: fmt.Sprintf("ops=%d obj=%d t=%d", r.Ops, r.Objects, r.threads), Seed: seed},
			func() *refcountInput { return r.genOps(seed) })
		r.ops, r.held = in.ops, in.held
		return
	}
	r.ops = nil
	r.held = make([][]int, r.threads)
	for i := range r.held {
		r.held[i] = make([]int, r.Objects)
		for j := range r.held[i] {
			r.held[i][j] = refStart
		}
	}
}

// Params implements sweep.Parameterized.
func (r *Refcount) Params() (string, bool) {
	return fmt.Sprintf("ops=%d obj=%d", r.Ops, r.Objects), true
}

// genOps precomputes every thread's decision stream and final held counts,
// mirroring Body's live path exactly: two draws per iteration (object, then
// acquire probability), held updated only on acquire/release.
func (r *Refcount) genOps(seed uint64) *refcountInput {
	in := &refcountInput{
		ops:  make([][]refcountOp, r.threads),
		held: make([][]int, r.threads),
	}
	for id := 0; id < r.threads; id++ {
		rng := commtm.ArchRand(seed, id)
		held := make([]int, r.Objects)
		for j := range held {
			held[j] = refStart
		}
		n := share(r.Ops, r.threads, id)
		ops := make([]refcountOp, n)
		for i := range ops {
			obj := rng.Intn(r.Objects)
			pAcq := 1.0 - float64(held[obj])/float64(refMaxHeld)
			switch {
			case rng.Float64() < pAcq:
				ops[i] = refcountOp{obj: int32(obj), kind: refAcquire}
				held[obj]++
			case held[obj] == 0:
				ops[i] = refcountOp{obj: int32(obj), kind: refSkip}
			default:
				ops[i] = refcountOp{obj: int32(obj), kind: refRelease}
				held[obj]--
			}
		}
		in.ops[id], in.held[id] = ops, held
	}
	return in
}

// acquire increments the object's reference count.
func (r *Refcount) acquire(t *commtm.Thread, ctr commtm.Addr) {
	t.Txn(func() {
		v := t.LoadL(ctr, r.add)
		t.StoreL(ctr, r.add, v+1)
	})
}

// release decrements the bounded counter using the paper's Sec. IV
// decrement: local partial, then gather, then full reduction. It returns
// false only if the global count is zero.
func (r *Refcount) release(t *commtm.Thread, ctr commtm.Addr) bool {
	ok := false
	t.Txn(func() {
		ok = false
		v := t.LoadL(ctr, r.add)
		if v == 0 {
			v = t.LoadGather(ctr, r.add)
			if v == 0 {
				v = t.Load64(ctr)
				if v == 0 {
					return
				}
			}
		}
		t.StoreL(ctr, r.add, v-1)
		ok = true
	})
	return ok
}

// opSetupCycles models the per-iteration work outside the transaction
// (object selection, probability computation) of the benchmark loop.
const opSetupCycles = 40

// Body implements harness.Workload.
func (r *Refcount) Body(t *commtm.Thread) {
	if r.ops != nil {
		// Replay the cached decision stream: same per-iteration setup cost,
		// same transaction sequence, no PRNG draws or held bookkeeping (the
		// final held counts came with the cached input).
		for _, op := range r.ops[t.ID()] {
			t.Cycles(opSetupCycles)
			switch op.kind {
			case refAcquire:
				r.acquire(t, r.ctrs[op.obj])
			case refRelease:
				if !r.release(t, r.ctrs[op.obj]) {
					return // impossible while we hold a reference; Validate catches it
				}
			}
		}
		return
	}
	n := share(r.Ops, r.threads, t.ID())
	held := r.held[t.ID()]
	rng := t.Rand()
	for i := 0; i < n; i++ {
		t.Cycles(opSetupCycles)
		obj := rng.Intn(r.Objects)
		pAcq := 1.0 - float64(held[obj])/float64(refMaxHeld)
		if rng.Float64() < pAcq {
			r.acquire(t, r.ctrs[obj])
			held[obj]++
			continue
		}
		if held[obj] == 0 {
			continue // nothing to release to this object
		}
		if !r.release(t, r.ctrs[obj]) {
			return // impossible while we hold a reference; Validate catches it
		}
		held[obj]--
	}
}

// Validate implements harness.Workload.
func (r *Refcount) Validate(m *commtm.Machine) error {
	for obj, ctr := range r.ctrs {
		want := 0
		for th := 0; th < r.threads; th++ {
			want += r.held[th][obj]
		}
		got := m.MemRead64(ctr)
		if got != uint64(want) {
			return fmt.Errorf("object %d refcount = %d, want %d", obj, got, want)
		}
		if int64(got) < 0 {
			return fmt.Errorf("object %d refcount negative: %d", obj, int64(got))
		}
	}
	return nil
}
