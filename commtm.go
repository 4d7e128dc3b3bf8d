// Package commtm is a from-scratch reproduction of "Exploiting Semantic
// Commutativity in Hardware Speculation" (Zhang, Chiu, Sanchez — MICRO
// 2016). It provides an execution-driven simulator of a 128-core chip with
// a three-level cache hierarchy and two hardware transactional memories:
//
//   - Baseline: an eager-conflict-detection, lazy-versioning HTM in the
//     style of LTM / Intel TSX, with timestamp-based conflict resolution.
//   - CommTM: the same HTM extended with the paper's user-defined reducible
//     (U) coherence state, labeled memory operations, transparent
//     user-defined reductions, and gather requests.
//
// A Machine owns simulated memory and a fixed number of hardware threads
// (one per core). Workloads allocate simulated memory, optionally define
// commutative-operation labels, and run a closure per thread:
//
//	m := commtm.New(commtm.Config{Threads: 8, Protocol: commtm.CommTM})
//	add := m.DefineLabel(commtm.AddLabel("ADD"))
//	ctr := m.AllocWords(1)
//	m.Run(func(t *commtm.Thread) {
//		for i := 0; i < 1000; i++ {
//			t.Txn(func() {
//				v := t.LoadL(ctr, add)
//				t.StoreL(ctr, add, v+1)
//			})
//		}
//	})
//	total := m.MemRead64(ctr) // 8000
//
// Stats returns the cycle breakdowns, abort causes, and coherence traffic
// counters used to regenerate every figure and table of the paper's
// evaluation; see EXPERIMENTS.md.
package commtm

import (
	"fmt"

	"commtm/internal/core"
	"commtm/internal/engine"
	"commtm/internal/mem"
	"commtm/internal/memsys"
	"commtm/internal/xrand"
)

// Re-exported simulator types. Aliases keep the public surface small while
// letting internal packages interoperate without conversion.
type (
	// Addr is a simulated physical address.
	Addr = mem.Addr
	// Line is one 64-byte cache line (eight 64-bit words).
	Line = mem.Line
	// Thread is a hardware thread context; see package internal/core.
	Thread = core.Thread
	// ReduceCtx gives reduction handlers and splitters direct coherent
	// memory access on the shadow thread.
	ReduceCtx = memsys.ReduceCtx
	// LabelID names a registered reducible label.
	LabelID = memsys.LabelID
	// LabelSpec defines a commutative operation family (identity value,
	// reduction handler, optional splitter).
	LabelSpec = memsys.LabelSpec
	// RNG is the simulator's deterministic PRNG — the concrete type behind
	// Thread.Rand and ArchRand.
	RNG = xrand.RNG
)

// LineBytes and WordsPerLine mirror the simulated line geometry.
const (
	LineBytes    = mem.LineBytes
	WordsPerLine = mem.WordsPerLine
)

// Protocol selects the simulated HTM.
type Protocol int

const (
	// Baseline is the conventional eager-lazy HTM: labeled operations
	// execute as conventional loads/stores, gathers as loads.
	Baseline Protocol = iota
	// CommTM enables the reducible state, reductions, and gathers.
	CommTM
)

func (p Protocol) String() string {
	if p == Baseline {
		return "Baseline"
	}
	return "CommTM"
}

// Config describes one simulated machine. The zero value of every field
// except Threads takes the paper's Table-I defaults.
type Config struct {
	Threads  int // 1..128 hardware threads, one per core
	Protocol Protocol
	// DisableGather runs CommTM without gather requests (the paper's
	// "CommTM w/o gather" configuration in Fig. 10).
	DisableGather bool
	Seed          uint64

	// Cache geometry overrides; zero means Table-I defaults
	// (32 KB 8-way L1, 128 KB 8-way L2).
	L1Bytes, L1Ways, L2Bytes, L2Ways int
}

// Machine is one simulated chip plus its memory image.
//
// A machine has an explicit lifecycle: New constructs it, Setup-style calls
// (DefineLabel, Alloc*, MemWrite64) prepare simulated memory, Run executes
// one parallel region, and Reset returns the machine to its pristine
// post-New state without freeing any memory, ready for another
// prepare/Run cycle. Each sweep worker keeps one machine and Resets it
// between consecutive cells of one configuration (internal/sweep), moving
// allocation from per-cell to per-worker; the golden conformance gate proves
// a Reset machine replays a fresh one bit-identically.
type Machine struct {
	cfg   Config
	store *mem.Store
	alloc *mem.Allocator
	ms    *memsys.MemSys
	rt    *core.Runtime
	k     *engine.Kernel
	ran   bool

	cycles uint64 // parallel-region length after Run
	resets uint64 // lifetime ResetSeed count
}

// MaxThreads is the largest Config.Threads New accepts: one hardware thread
// per core of the paper's 16-tile, 8-cores-per-tile mesh (noc.Default4x4).
// Command-line tools check it up front so a bad thread count is a usage
// error rather than a failed run.
const MaxThreads = 128

// New builds a machine. It panics on invalid configuration — construction
// errors are programming errors, not runtime conditions.
func New(cfg Config) *Machine {
	if cfg.Threads <= 0 || cfg.Threads > MaxThreads {
		panic(fmt.Sprintf("commtm: Threads must be in 1..%d, got %d", MaxThreads, cfg.Threads))
	}
	p := memsys.DefaultParams(cfg.Threads)
	p.EnableU = cfg.Protocol == CommTM
	p.EnableGather = cfg.Protocol == CommTM && !cfg.DisableGather
	p.Seed = cfg.Seed
	if cfg.L1Bytes != 0 {
		p.L1Bytes = cfg.L1Bytes
	}
	if cfg.L1Ways != 0 {
		p.L1Ways = cfg.L1Ways
	}
	if cfg.L2Bytes != 0 {
		p.L2Bytes = cfg.L2Bytes
	}
	if cfg.L2Ways != 0 {
		p.L2Ways = cfg.L2Ways
	}
	m := &Machine{
		cfg:   cfg,
		store: mem.NewStore(),
		alloc: mem.NewAllocator(),
		k:     engine.NewKernel(cfg.Threads, cfg.Seed),
	}
	m.rt = core.NewRuntime(nil, cfg.Threads) // ms wired below
	m.ms = memsys.New(p, m.store, m.rt)
	m.rt.SetMemSys(m.ms)
	return m
}

// Reset restores the machine to its pristine post-New(cfg) state without
// freeing memory: the cache sets written since the last Reset are cleared in
// place (O(sets written)), backing-store and directory pages are invalidated
// by generation stamp (zeroed lazily on next touch, so Reset is O(pages
// touched), not O(capacity)), the label registry, allocator, runtime,
// statistics, and every PRNG stream return to their constructed state. A
// Reset machine replays any workload bit-identically to a freshly built one
// — TestGoldenConformance runs the golden matrix with reuse on and off, and
// the cache package's TestResetMatchesNew checks the cleared arrays against
// fresh ones. Reset is also safe after a run that panicked (the kernel
// drains its procs before propagating).
func (m *Machine) Reset() { m.ResetSeed(m.cfg.Seed) }

// ResetSeed is Reset with a different PRNG seed: afterwards the machine is
// indistinguishable from New with Config.Seed = seed. Sweep workers use it
// to reuse one machine across cells that differ only in seed.
func (m *Machine) ResetSeed(seed uint64) {
	m.resets++
	m.cfg.Seed = seed
	m.k.Reset(seed)
	m.rt.Reset()
	m.ms.Reset(seed)
	m.store.Reset()
	m.alloc.Reset()
	m.ran = false
	m.cycles = 0
}

// ResetCount returns how many times the machine has been ResetSeed over its
// lifetime. It is host-side lifecycle telemetry — never zeroed by Reset
// itself — and exists so tests can pin the reset cost of a lifecycle path:
// a reused machine resets exactly once per cell, a fresh one not at all.
func (m *Machine) ResetCount() uint64 { return m.resets }

// Close releases the machine's coroutine pool (one parked goroutine per
// hardware thread, kept across runs so Reset+Run is allocation-free).
// Callers that discard machines in a long-lived process — sweep workers,
// servers — should Close them; short-lived programs can skip it (the
// goroutines end with the process). Close is idempotent and non-terminal:
// a closed machine rebuilds its pool on the next Run.
func (m *Machine) Close() { m.k.Halt() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// ArchRand returns a PRNG bit-identical to the architectural stream thread
// tid observes through Thread.Rand at the start of Run on a machine seeded
// with seed. Workload-input arenas use it to precompute op streams host-side
// and replay them during Body instead of drawing live; because the streams
// are equal draw for draw, the replay is architecturally invisible (the
// golden conformance gate runs with input arenas on and off to prove it).
func ArchRand(seed uint64, tid int) *RNG { return engine.ArchRand(seed, tid) }

// DefineLabel registers a commutative-operation label (at most 8, the
// architectural limit; virtualize in software beyond that, Sec. III-D).
func (m *Machine) DefineLabel(spec LabelSpec) LabelID {
	return m.ms.RegisterLabel(spec)
}

// Alloc reserves simulated memory: size bytes at the given power-of-two
// alignment.
func (m *Machine) Alloc(size, align int) Addr {
	return m.alloc.Alloc(size, align)
}

// AllocLines reserves n line-aligned cache lines.
func (m *Machine) AllocLines(n int) Addr {
	return m.alloc.AllocLines(n)
}

// AllocWords reserves n word-aligned 64-bit words.
func (m *Machine) AllocWords(n int) Addr {
	return m.alloc.AllocWords(n)
}

// MemWrite64 initializes simulated memory directly (zero simulated time).
// Use before Run; writing lines that are already cached panics via Drain
// invariants rather than silently diverging.
func (m *Machine) MemWrite64(a Addr, v uint64) {
	m.store.Write64(a, v)
}

// MemRead64 reads architectural memory directly. After Run the machine has
// been drained, so this observes the committed final state.
func (m *Machine) MemRead64(a Addr) uint64 { return m.store.Read64(a) }

// Run executes body on every hardware thread (thread i is pinned to core
// i), simulating until all threads return, then drains the caches so
// MemRead64 observes final architectural state. Run may be called once per
// lifecycle; Reset re-arms the machine for another prepare/Run cycle.
func (m *Machine) Run(body func(t *Thread)) {
	if m.ran {
		panic("commtm: Machine.Run called twice; Reset the machine (or build a fresh one) per run")
	}
	m.ran = true
	k := m.k
	k.Run(func(p *engine.Proc) {
		body(m.rt.NewThread(p))
	})
	for i := 0; i < m.cfg.Threads; i++ {
		p := k.Proc(i)
		cs := m.rt.CoreStats(i)
		cs.TotalCycles = p.Clock()
		if p.Clock() > m.cycles {
			m.cycles = p.Clock()
		}
	}
	m.ms.Drain()
}

// FNV-1a 64-bit parameters, used for all canonical digests.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DigestWords returns an order-sensitive FNV-1a hash of the given words.
// Workloads use it to build canonical digests of their semantic final state
// (e.g. a sorted multiset) for cross-protocol conformance checking.
func DigestWords(words []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range words {
		h = digestWord(h, w)
	}
	return h
}

func digestWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// MemDigest returns a canonical digest of architectural memory: an FNV-1a
// hash over every non-zero line, in address order, mixing each line's base
// address with its eight words. All-zero lines are excluded so lazily
// materialized but untouched lines cannot perturb the digest. Intended
// after Run (the machine is drained, so this observes committed state), but
// safe at any point where the backing store is authoritative.
func (m *Machine) MemDigest() uint64 {
	h := uint64(fnvOffset64)
	m.store.ForEach(func(a Addr, l *Line) {
		zero := true
		for _, w := range l {
			if w != 0 {
				zero = false
				break
			}
		}
		if zero {
			return
		}
		h = digestWord(h, uint64(a))
		for _, w := range l {
			h = digestWord(h, w)
		}
	})
	return h
}

// Stats aggregates the run's statistics. Valid after Run.
type Stats struct {
	Threads int
	// Cycles is the parallel-region length: the max final core clock.
	Cycles uint64
	// TotalCoreCycles sums all cores' cycles (the unit of Fig. 17).
	TotalCoreCycles uint64

	// Cycle breakdown (Fig. 17).
	NonTxCycles     uint64
	CommittedCycles uint64
	WastedCycles    uint64

	// Wasted-cycle breakdown (Fig. 18).
	WastedReadAfterWrite uint64
	WastedWriteAfterRead uint64
	WastedGather         uint64
	WastedOther          uint64

	Commits uint64
	Aborts  uint64

	// Coherence traffic between private L2s and the L3 (Fig. 19).
	GETS, GETX, GETU uint64

	Reductions, Gathers, Splits uint64
	NACKs                       uint64

	Instructions uint64
	LabeledOps   uint64
}

// LabeledFraction returns labeled ops / executed instructions (Sec. VII).
func (s Stats) LabeledFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.LabeledOps) / float64(s.Instructions)
}

// AbortRate returns aborts / (commits+aborts).
func (s Stats) AbortRate() float64 {
	n := s.Commits + s.Aborts
	if n == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(n)
}

// Stats returns aggregated statistics for the completed run.
func (m *Machine) Stats() Stats {
	s := Stats{Threads: m.cfg.Threads, Cycles: m.cycles}
	for i := 0; i < m.cfg.Threads; i++ {
		cs := m.rt.CoreStats(i)
		s.TotalCoreCycles += cs.TotalCycles
		s.CommittedCycles += cs.CommittedCycles
		s.WastedCycles += cs.WastedCycles
		s.WastedReadAfterWrite += cs.WastedByCause[memsys.CauseReadAfterWrite]
		s.WastedWriteAfterRead += cs.WastedByCause[memsys.CauseWriteAfterRead]
		s.WastedGather += cs.WastedByCause[memsys.CauseGatherLabeled]
		s.WastedOther += cs.WastedByCause[memsys.CauseOther] + cs.WastedByCause[memsys.CauseNone]
		s.Commits += cs.Commits
		s.Aborts += cs.Aborts
		s.Instructions += cs.Instructions
		s.LabeledOps += cs.LabeledOps
	}
	s.NonTxCycles = s.TotalCoreCycles - s.CommittedCycles - s.WastedCycles
	c := m.ms.Counters()
	s.GETS, s.GETX, s.GETU = c.GETS, c.GETX, c.GETU
	s.Reductions, s.Gathers, s.Splits = c.Reductions, c.Gathers, c.Splits
	s.NACKs = c.NACKs
	return s
}

// AddLabel returns a LabelSpec implementing commutative 64-bit addition
// with identity zero — the paper's ADD label (Sec. III-A). Each word of the
// line is an independent counter.
func AddLabel(name string) LabelSpec {
	return LabelSpec{
		Name: name,
		Reduce: func(_ *ReduceCtx, dst, src *Line) {
			for i := range dst {
				dst[i] += src[i]
			}
		},
		Split: func(_ *ReduceCtx, local, out *Line, numSharers int) {
			// Donate ceil(value/numSharers) of each counter, keeping the
			// rest — the paper's add_split (Sec. IV).
			for i := range local {
				v := local[i]
				d := (v + uint64(numSharers) - 1) / uint64(numSharers)
				out[i] = d
				local[i] = v - d
			}
		},
		ReduceCost: 3, // eight pipelined adds on the shadow thread
		SplitCost:  4,
	}
}

// MinLabel returns a LabelSpec for commutative 64-bit minimum (identity
// MaxUint64) — the paper's MIN label used by boruvka.
func MinLabel(name string) LabelSpec {
	var id Line
	for i := range id {
		id[i] = ^uint64(0)
	}
	return LabelSpec{
		Name:     name,
		Identity: id,
		Reduce: func(_ *ReduceCtx, dst, src *Line) {
			for i := range dst {
				if src[i] < dst[i] {
					dst[i] = src[i]
				}
			}
		},
		ReduceCost: 8,
	}
}

// MaxLabel returns a LabelSpec for commutative 64-bit maximum (identity 0).
func MaxLabel(name string) LabelSpec {
	return LabelSpec{
		Name: name,
		Reduce: func(_ *ReduceCtx, dst, src *Line) {
			for i := range dst {
				if src[i] > dst[i] {
					dst[i] = src[i]
				}
			}
		},
		ReduceCost: 8,
	}
}

// OPutLabel returns a LabelSpec for ordered puts (priority update): each
// line holds up to four (key, value) pairs in adjacent words; a put
// replaces a pair when the new key is lower (Sec. VI). Identity keys are
// MaxUint64.
func OPutLabel(name string) LabelSpec {
	var id Line
	for i := 0; i < WordsPerLine; i += 2 {
		id[i] = ^uint64(0)
	}
	return LabelSpec{
		Name:     name,
		Identity: id,
		Reduce: func(_ *ReduceCtx, dst, src *Line) {
			for i := 0; i < WordsPerLine; i += 2 {
				if src[i] < dst[i] {
					dst[i], dst[i+1] = src[i], src[i+1]
				}
			}
		},
		ReduceCost: 8,
	}
}
