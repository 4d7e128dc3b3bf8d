// Package engine provides the deterministic execution kernel of the
// simulator. Each simulated core runs its workload as a Go closure on its
// own coroutine, but the kernel schedules exactly one core at a time — the
// runnable core with the smallest (clock, id) — so all simulator state can
// be mutated without locks and every run is bit-identical for a given seed.
//
// Cores advance their local clocks through Tick (cheap local work: L1 hits,
// ALU ops) and Stall (global events: misses, protocol transactions). Tick
// does not yield to the scheduler unless the core has run too far ahead of
// its last scheduling point; Stall always yields. Barrier implements the
// usual all-threads rendezvous used between parallel phases.
//
// The kernel is a pull scheduler over coroutines (iter.Pull), not a
// goroutine pool: parked runnable procs sit in a min-heap keyed on
// (clock, id), the scheduling loop resumes the heap minimum with a direct
// coroutine switch, and a yielding proc whose clock is still the smallest
// keeps running with no switch at all. Coroutine switches stay on one
// goroutine and never enter the Go runtime scheduler, eliminating the
// channel rendezvous, goroutine parking, and OS-thread wakeups that used to
// account for a third of simulation wall-clock (two channel operation pairs
// plus a scheduler-goroutine hop per yield). It also makes the kernel
// single-threaded by construction: no locks, no atomics, nothing for the
// race detector to even watch.
package engine

import (
	"fmt"
	"iter"

	"commtm/internal/xrand"
)

type status uint8

const (
	statusRunnable status = iota
	statusBlocked         // waiting at a barrier
	statusDone
)

// MaxSkew bounds how far a core may run ahead on local work before it must
// yield, keeping cross-core event ordering close to true timestamp order.
const MaxSkew = 2000

// Proc is one simulated hardware context (core).
type Proc struct {
	ID int
	// Rand is the architectural PRNG stream: the simulated program's own
	// randomness. Nothing in the simulator may draw from it, so a workload's
	// decision sequence is identical across protocols, thread interleavings,
	// and abort counts — the property the differential conformance oracle
	// (internal/sweep) relies on.
	Rand *xrand.RNG
	// SysRand is the microarchitectural PRNG stream, for timing-level
	// randomness (abort backoff). Draws vary with protocol and schedule and
	// must never influence architectural results.
	SysRand *xrand.RNG

	k          *Kernel
	clock      uint64
	lastYield  uint64
	waitCycles uint64 // cycles spent blocked at barriers
	status     status

	// Coroutine controls. Each proc owns one persistent coroutine that
	// lives across runs (and kernel Resets): its body is an endless loop
	// that runs the kernel's current run body, parks, and waits for the
	// next run. resume re-enters the coroutine until its next yield; stop
	// makes the pending (or initial) yield report false, which the loop
	// converts into a clean coroutine exit (Halt). alive tracks whether the
	// coroutine exists — it is built lazily at Run, torn down by Halt, and
	// abandoned when a body panic unwinds it.
	resume  func() (struct{}, bool)
	stop    func()
	alive   bool
	yieldFn func(struct{}) bool
}

// Kernel owns the procs of one parallel region and schedules them.
//
// Procs run their bodies on a pool of persistent coroutines: one per proc,
// created on first use and parked between runs, so the steady-state cost of
// a Run on a Reset kernel is zero coroutine construction (the iter.Pull
// machinery used to dominate per-run allocations in machine-reuse sweeps).
// Halt releases the pool's goroutines; the next Run rebuilds on demand.
type Kernel struct {
	procs []*Proc
	// runq is a min-heap on (clock, id) of parked runnable procs. The
	// currently running proc is never in it; blocked and done procs leave it
	// until releaseBarrier re-inserts them. (clock, id) is a total order —
	// ids are unique — so pop order is deterministic and identical to a
	// linear min-scan.
	runq []*Proc
	// horizon mirrors runq[0]'s scheduling key whenever horizonOK, so the
	// keep-running decision in yield — the single hottest branch under
	// Stall-dense workloads — is two register compares with no heap access.
	// Every heap mutation refreshes it.
	horizonClock uint64
	horizonID    int
	horizonOK    bool
	// handoff is the next proc to resume, set by a yielding proc that
	// swapped itself into the heap top's slot (replace-top). It lets a
	// switch cost one sift-down instead of a push sift-up plus a pop
	// sift-down, and the scheduling loop skip the heap entirely.
	handoff  *Proc
	body     func(p *Proc) // current run's body, nil between runs
	running  bool
	draining bool
}

// drainSig unwinds a proc coroutine during panic drain; it must never be
// swallowed by workload code (transaction recovery re-panics non-abort
// values, so it passes through).
type drainSig struct{}

// ArchRand returns a PRNG in the state proc tid's architectural stream
// (Proc.Rand) has at the start of a run on a kernel seeded with seed. It is
// the one authoritative statement of the architectural stream derivation:
// workload-input arenas use it to precompute, host-side, the exact draw
// sequence a workload body would make through Thread.Rand, so replayed op
// streams are bit-identical to live draws.
func ArchRand(seed uint64, tid int) *xrand.RNG {
	return xrand.Derive(seed, uint64(tid))
}

// NewKernel creates a kernel with n procs whose PRNGs derive from seed.
func NewKernel(n int, seed uint64) *Kernel {
	if n <= 0 {
		panic("engine: kernel needs at least one proc")
	}
	k := &Kernel{runq: make([]*Proc, 0, n)}
	for i := 0; i < n; i++ {
		k.procs = append(k.procs, &Proc{
			ID: i,
			// Distinct stream ids keep the architectural and
			// microarchitectural streams independent (core ids are < 2^32).
			// The architectural derivation must match ArchRand (and the
			// in-place reseed in Reset).
			Rand:    ArchRand(seed, i),
			SysRand: xrand.Derive(seed, uint64(i)+1<<32),
			k:       k,
		})
	}
	return k
}

// Reset restores the kernel to the state NewKernel(n, seed) would produce,
// without reallocating procs, their PRNGs, or their coroutines: clocks,
// barrier-wait counters, and statuses are cleared and both PRNG streams are
// re-derived in place, while parked coroutines stay parked — the next Run
// reuses them. Reset must not be called while Run is in progress; it is
// safe after a drained (panicked) run (the panicked proc's coroutine is
// rebuilt lazily by the next Run).
func (k *Kernel) Reset(seed uint64) {
	if k.running {
		panic("engine: Kernel.Reset during Run")
	}
	k.runq = k.runq[:0]
	k.horizonOK = false
	k.handoff = nil
	k.draining = false
	for i, p := range k.procs {
		p.clock, p.lastYield, p.waitCycles = 0, 0, 0
		p.status = statusRunnable
		p.Rand.SeedDerived(seed, uint64(i))
		p.SysRand.SeedDerived(seed, uint64(i)+1<<32)
	}
}

// Halt tears down the coroutine pool, releasing one parked goroutine per
// proc. A kernel whose machine is being discarded should be halted, or its
// goroutines live until process exit; a halted kernel remains fully usable
// — the next Run rebuilds coroutines on demand. Halt is idempotent and a
// no-op on a never-run kernel.
func (k *Kernel) Halt() {
	if k.running {
		panic("engine: Kernel.Halt during Run")
	}
	for _, p := range k.procs {
		if p.alive {
			// Between runs every live coroutine is parked at its loop yield
			// (drain parks even panicking runs' survivors); stop makes that
			// yield report false and the loop returns, ending the goroutine.
			p.alive = false
			p.stop()
		}
	}
}

// Procs returns the number of procs.
func (k *Kernel) Procs() int { return len(k.procs) }

// Proc returns proc i.
func (k *Kernel) Proc(i int) *Proc { return k.procs[i] }

// Clock returns proc i's current local clock.
func (p *Proc) Clock() uint64 { return p.clock }

// procLess is the scheduling order: smallest (clock, id) runs next.
func procLess(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.ID < b.ID)
}

// refreshHorizon re-mirrors runq[0] into the horizon fields after a heap
// mutation (or marks the horizon absent on an empty queue).
func (k *Kernel) refreshHorizon() {
	if len(k.runq) == 0 {
		k.horizonOK = false
		return
	}
	top := k.runq[0]
	k.horizonClock, k.horizonID, k.horizonOK = top.clock, top.ID, true
}

// push inserts p into the run queue. p's clock must be stable until it is
// popped (parked procs never change their own clocks, so it is).
func (k *Kernel) push(p *Proc) {
	q := append(k.runq, p)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !procLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	k.runq = q
	k.refreshHorizon()
}

// siftDown restores the heap property below index i and refreshes the
// horizon. It is the shared tail of pop and the replace-top fast path in
// yield.
func (k *Kernel) siftDown(i int) {
	q := k.runq
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && procLess(q[r], q[l]) {
			m = r
		}
		if !procLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	k.refreshHorizon()
}

// pop removes and returns the run-queue minimum, or nil when empty.
func (k *Kernel) pop() *Proc {
	q := k.runq
	n := len(q) - 1
	if n < 0 {
		return nil
	}
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	k.runq = q[:n]
	k.siftDown(0)
	return top
}

// Run executes body once per proc, scheduling deterministically until every
// proc returns. It panics if any body panics (with the original value) or
// if Run is re-entered. Procs run on the kernel's persistent coroutine
// pool: coroutines missing from the pool (first run, post-Halt, or
// abandoned by a previous run's panic) are built here; the rest resume
// where they parked.
func (k *Kernel) Run(body func(p *Proc)) {
	if k.running {
		panic("engine: Kernel.Run re-entered")
	}
	k.running = true
	k.body = body
	defer func() { k.running, k.body = false, nil }()
	// Any panic leaving the scheduling loop — a proc body's (propagated out
	// of resume), or one of the kernel's own invariant panics — must first
	// unwind every unfinished proc body, or those procs are stuck mid-run
	// and their coroutines cannot be reparked for the next run.
	defer func() {
		if r := recover(); r != nil {
			k.drain()
			panic(r)
		}
	}()

	for _, p := range k.procs {
		p.status = statusRunnable
		if !p.alive {
			p.alive = true
			p.resume, p.stop = newCoro(k, p)
		}
		k.push(p)
	}

	for {
		// A yielding proc that swapped itself into the heap hands the
		// displaced minimum straight to this loop; only barrier parks and
		// body completions fall back to a real pop.
		next := k.handoff
		if next != nil {
			k.handoff = nil
		} else if next = k.pop(); next == nil {
			if k.allDone() {
				return
			}
			k.releaseBarrier()
			continue
		}
		// Resume runs the proc until its next yield. A body panic
		// propagates out of resume into the drain defer above.
		next.resume()
	}
}

// newCoro builds p's persistent coroutine: an endless loop that executes
// the kernel's current run body, marks the proc done, and parks until the
// next run resumes it (or Halt stops it, which makes the park yield report
// false and ends the loop). The returned resume runs the coroutine up to
// its next yield.
func newCoro(k *Kernel, p *Proc) (resume func() (struct{}, bool), stop func()) {
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		for {
			p.runBody(k)
			p.status = statusDone
			if !yield(struct{}{}) {
				return // Halt released the pool
			}
		}
	})
	return next, stop
}

// runBody executes the kernel's current run body on p, converting a drain
// unwind into a clean return (the coroutine survives, parks, and serves the
// next run). A real body panic marks the coroutine abandoned and re-panics
// so Run's scheduling loop reports it; the next Run rebuilds this proc's
// coroutine.
func (p *Proc) runBody(k *Kernel) {
	defer func() {
		if r := recover(); r != nil {
			if _, unwind := r.(drainSig); unwind {
				return
			}
			if k.draining {
				// Secondary panic from a workload's deferred cleanup while
				// drainSig unwound its body. Re-panicking here would abort
				// the drain (leaving the remaining procs mid-body) and
				// replace the original panic, so drop it — the panic that
				// started the drain is the one Run reports.
				return
			}
			// Real panic: the re-panic unwinds the coroutine loop itself
			// (iter.Pull forwards it out of resume into Run), so this
			// coroutine is gone; flag it for lazy rebuild. The proc is done
			// as far as this run is concerned — drain's post-condition is
			// "every proc done and reparked or gone".
			p.alive = false
			p.status = statusDone
			panic(fmt.Sprintf("engine: proc %d panicked: %v", p.ID, r))
		}
	}()
	if !k.draining {
		k.body(p)
	}
}

// drain unwinds every unfinished proc body and reparks its coroutine: each
// resumed proc observes draining at its pending park (or skips its body, if
// it never started this run) and unwinds via drainSig, leaving the
// coroutine parked at its loop yield, ready for the next run.
func (k *Kernel) drain() {
	k.draining = true
	for _, p := range k.procs {
		// Resume until the proc reaches its loop yield (statusDone): a
		// workload defer that itself parks (a Barrier or Stall in cleanup)
		// re-enters park during the drainSig unwind and hands control back
		// here still mid-defer; each further resume unwinds at least one
		// more defer frame, so this terminates with the body fully unwound.
		for p.alive && p.status != statusDone {
			p.resume()
		}
	}
	// Every live coroutine is reparked; the kernel is coherent again (a
	// Reset is still required before the next run for pristine state). A
	// cleanup-path Stall may have staged a handoff before its drainSig
	// unwind; drop it so nothing leaks into the next run.
	k.handoff = nil
	k.draining = false
}

func (k *Kernel) allDone() bool {
	for _, p := range k.procs {
		if p.status != statusDone {
			return false
		}
	}
	return true
}

// releaseBarrier wakes every barrier-blocked proc at the max clock among
// them, modelling a hardware barrier where all threads leave together.
func (k *Kernel) releaseBarrier() {
	var maxClock uint64
	any := false
	for _, p := range k.procs {
		if p.status == statusBlocked {
			any = true
			if p.clock > maxClock {
				maxClock = p.clock
			}
		}
	}
	if !any {
		panic("engine: scheduler stuck with no runnable, no blocked, not all done")
	}
	for _, p := range k.procs {
		if p.status == statusBlocked {
			p.waitCycles += maxClock - p.clock
			p.clock = maxClock
			p.lastYield = maxClock
			p.status = statusRunnable
			k.push(p)
		}
	}
}

// park switches back to the scheduling loop and blocks until the proc is
// resumed. A resume during a kernel drain unwinds the body via drainSig
// (the coroutine itself survives and reparks at its loop yield); a false
// yield return means Halt is ending the coroutine outright — unreachable
// mid-body, since Halt refuses to run during Run, but the unwind keeps it
// safe regardless.
func (p *Proc) park() {
	if !p.yieldFn(struct{}{}) {
		panic(drainSig{})
	}
	if p.k.draining {
		panic(drainSig{})
	}
}

// yield gives other procs a chance to run while p remains runnable. If p is
// still ahead of the horizon — the cached run-queue minimum — it keeps
// running with no context switch at all: the scheduler would pick it again
// anyway, so consecutive directory stalls of the earliest proc are absorbed
// without touching the heap. When p must switch, it takes the heap top's
// slot and hands the displaced minimum to the scheduling loop (replace-top:
// one sift-down, versus the push sift-up plus pop sift-down it replaces;
// both orderings pop the identical (clock, id) minimum, so the schedule is
// unchanged).
func (p *Proc) yield() {
	k := p.k
	if !k.horizonOK || p.clock < k.horizonClock ||
		(p.clock == k.horizonClock && p.ID < k.horizonID) {
		return
	}
	k.handoff = k.runq[0]
	k.runq[0] = p
	k.siftDown(0)
	p.park()
}

// Tick advances the local clock by cycles of purely local work. It yields
// only if the proc has drifted more than MaxSkew past its last yield.
func (p *Proc) Tick(cycles uint64) {
	p.clock += cycles
	if p.clock-p.lastYield > MaxSkew {
		p.lastYield = p.clock
		p.yield()
	}
}

// Stall advances the local clock by cycles and yields, modelling an event
// whose timing other cores may observe (cache miss, protocol transaction).
func (p *Proc) Stall(cycles uint64) {
	p.clock += cycles
	p.lastYield = p.clock
	p.yield()
}

// Barrier blocks until every non-finished proc reaches a barrier, then all
// are released at the maximum clock among them.
func (p *Proc) Barrier() {
	p.status = statusBlocked
	p.park()
}

// BarrierWaitCycles returns the total cycles this proc has spent waiting at
// barriers so far.
func (p *Proc) BarrierWaitCycles() uint64 { return p.waitCycles }
