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
// prepare/Run cycle. Sweeps reuse one machine per configuration across many
// cells (internal/sweep), moving allocation from per-cell to per-worker;
// the golden conformance gate proves a Reset machine replays a fresh one
// bit-identically.
type Machine struct {
	cfg   Config
	store *mem.Store
	alloc *mem.Allocator
	ms    *memsys.MemSys
	rt    *core.Runtime
	k     *engine.Kernel
	ran   bool

	cycles uint64 // parallel-region length after Run
	resets uint64 // lifetime ResetSeed count (Reset/Restore included)

	// Image-digest stamp: when stamped, the machine's architectural state is
	// bit-identical to the image whose digest is imgDigest (set by Restore
	// and Snapshot, cleared by anything that mutates architectural state).
	// Restore consults it to skip redundant restores entirely. A separate
	// bool is required because 0 is a legal digest value.
	imgDigest    uint64
	imgStamped   bool
	restoreSkips uint64 // lifetime count of stamp-matched Restore no-ops
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
// freeing memory: cache arrays are cleared in place, backing-store and
// directory pages are invalidated by generation stamp (zeroed lazily on
// next touch, so Reset is O(pages touched), not O(capacity)), the label
// registry, allocator, runtime, statistics, and every PRNG stream return to
// their constructed state. A Reset machine replays any workload
// bit-identically to a freshly built one — TestGoldenConformance runs the
// golden matrix with reuse on and off to prove Reset leaks no state. Reset
// is also safe after a run that panicked (the kernel drains its procs
// before propagating), which is how sweep workers recover their arenas.
func (m *Machine) Reset() { m.ResetSeed(m.cfg.Seed) }

// ResetSeed is Reset with a different PRNG seed: afterwards the machine is
// indistinguishable from New with Config.Seed = seed. Sweep arenas use it
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
	m.imgStamped = false
}

// ResetCount returns how many times the machine has been ResetSeed over its
// lifetime (Reset and Restore both reset). It is host-side lifecycle
// telemetry — never zeroed by Reset itself — and exists so tests can pin
// the reset cost of a lifecycle path: a snapshot-arena hit must reset
// exactly once (inside Restore), not once at acquire and again at Restore.
func (m *Machine) ResetCount() uint64 { return m.resets }

// Image is an immutable, content-addressed snapshot of a machine's complete
// post-Setup architectural state: the backing-store pages, the allocator
// break, the label registry, and every PRNG position. Machine.Snapshot
// captures one by sealing the live store's 4 KiB pages and aliasing them —
// no page payload is copied at capture; Machine.Restore adopts the same
// page pointers back on top of the generation-stamp Reset, so a repeated
// cell skips Setup entirely and the only page copies ever made are
// copy-on-write copies of pages the restored machine actually dirties.
// Images are shared read-only across goroutines — the snapshot arena
// (internal/workloads/snapshots) hands one image to every worker restoring
// the same configuration.
type Image struct {
	cfg    Config
	store  *mem.StoreImage
	brk    Addr
	labels []LabelSpec
	rands  []engine.ProcRands
	msRand uint64
	digest uint64
}

// Config returns the configuration (seed included) the image was captured
// under; Restore replays that seed.
func (img *Image) Config() Config { return img.cfg }

// Digest returns the image's content address: an FNV-1a hash over the
// captured memory contents, allocator break, label names, and PRNG
// positions. Two Setups that produce bit-identical machine state produce
// equal digests, so the digest identifies an image independently of which
// worker captured it.
func (img *Image) Digest() uint64 { return img.digest }

// Bytes returns the logical size of the image's page payloads — what a
// whole-page-copy image would occupy. The resident footprint is smaller
// whenever pages are shared with live stores or sibling images (see
// Store.PageStats).
func (img *Image) Bytes() int { return img.store.Bytes() }

// Pages returns the number of 4 KiB pages the image references.
func (img *Image) Pages() int { return img.store.Pages() }

// Lines returns the number of captured simulated-memory lines.
func (img *Image) Lines() int { return img.store.Lines() }

// PageBytes is the machine's page granularity — the unit of copy-on-write
// sharing between images and live machines, re-exported for telemetry
// consumers converting page counts to bytes.
const PageBytes = mem.PageBytes

// Snapshot captures the machine's post-Setup state into an immutable Image.
// It must be called after Setup-style preparation and before Run: snapshots
// record installed state, not run outcomes (caches are empty and the
// directory untouched at this point, which is exactly what Restore's Reset
// reproduces). Calling it on a machine that has Run panics.
func (m *Machine) Snapshot() *Image {
	if m.ran {
		panic("commtm: Machine.Snapshot after Run; snapshots capture post-Setup state (Reset first)")
	}
	img := &Image{
		cfg:    m.cfg,
		store:  m.store.Snapshot(),
		brk:    m.alloc.Brk(),
		labels: m.ms.SnapshotLabels(),
		rands:  m.k.SnapshotRands(),
		msRand: m.ms.SnapshotRand(),
	}
	h := m.MemDigest() // store is authoritative pre-Run
	h = digestWord(h, uint64(img.brk))
	h = digestWord(h, img.msRand)
	for _, r := range img.rands {
		h = digestWord(h, r.Arch)
		h = digestWord(h, r.Sys)
	}
	for _, l := range img.labels {
		// Length-prefix the name so label tables like ["ab","c"] and
		// ["a","bc"] cannot digest equal.
		h = digestWord(h, uint64(len(l.Name)))
		for i := 0; i < len(l.Name); i++ {
			h = digestWord(h, uint64(l.Name[i]))
		}
		h = digestWord(h, l.ReduceCost)
		h = digestWord(h, l.SplitCost)
	}
	img.digest = h
	// The machine's state is, by construction, bit-identical to the image it
	// just captured: stamp it so an immediate Restore of this image (or a
	// content-equal one) is a no-op.
	m.imgDigest, m.imgStamped = h, true
	return img
}

// Restore reinstates a captured Image: a full ResetSeed to the image's seed,
// then pointer adoption of the image's sealed backing-store pages (no page
// copies — the store copies a page on its first write into it), the
// allocator break, the label registry, and the PRNG positions. Afterwards
// the machine is bit-identical to the one Snapshot observed —
// TestGoldenConformance runs the golden matrix with snapshots on and off to
// prove Restore replays Setup exactly.
//
// Restore is a no-op when the machine's image-digest stamp already matches
// the requested image: a machine that was just restored from (or just
// captured) a content-equal image and has not mutated architectural state
// since is already in the target state, so not even the Reset runs
// (TestRestoreSkipZeroWork pins zero resets and zero page copies on the
// skip path).
// The image must come from a machine with the same thread count and cache
// geometry; Restore panics otherwise (restoring across geometries would
// silently misconfigure the caches). The protocol variant and gather knob
// are deliberately NOT part of the check: Setup installs state identically
// for every variant (the protocol only changes how Run interprets it), and
// sharing one image across a configuration's variants is where the sweep
// engine's snapshot hits come from.
func (m *Machine) Restore(img *Image) {
	mc, ic := m.cfg, img.cfg
	mc.Seed, ic.Seed = 0, 0
	mc.Protocol, ic.Protocol = 0, 0
	mc.DisableGather, ic.DisableGather = false, false
	if mc != ic {
		panic(fmt.Sprintf("commtm: Restore of image captured under %+v onto machine configured %+v", img.cfg, m.cfg))
	}
	if m.imgStamped && m.imgDigest == img.digest && m.cfg.Seed == img.cfg.Seed {
		m.restoreSkips++
		return
	}
	m.ResetSeed(img.cfg.Seed)
	m.store.Restore(img.store)
	m.alloc.Restore(img.brk)
	m.ms.RestoreLabels(img.labels)
	m.ms.RestoreRand(img.msRand)
	m.k.RestoreRands(img.rands)
	m.imgDigest, m.imgStamped = img.digest, true
}

// BaseImage is the geometry-invariant half of a split machine image: the
// backing-store pages, the allocator break, and the label registry — no PRNG
// positions and no thread count. A workload whose Setup installs identical
// state at every thread count (snapshots.ThreadInvariant) captures one base
// per parameter point and adopts it across the whole thread sweep;
// RestoreBase reinstates it on a machine of any geometry by ResetSeed +
// page-pointer adoption, with the PRNG streams correct by construction
// (capture requires them pristine, and ResetSeed re-derives exactly the
// pristine positions for the target geometry).
type BaseImage struct {
	cfg    Config // capturing machine's config; Threads advisory only
	store  *mem.StoreImage
	brk    Addr
	labels []LabelSpec
	digest uint64
}

// Config returns the configuration of the machine the base was captured
// from. Unlike Image.Config, the Threads field is informational: a base is
// adoptable at any thread count.
func (b *BaseImage) Config() Config { return b.cfg }

// Digest returns the base's content address: an FNV-1a hash over memory
// contents, allocator break, and label names — deliberately excluding PRNG
// positions and thread count, so bases captured at different geometries from
// the same Setup digest equal.
func (b *BaseImage) Digest() uint64 { return b.digest }

// Pages returns the number of 4 KiB pages the base references.
func (b *BaseImage) Pages() int { return b.store.Pages() }

// Lines returns the number of captured simulated-memory lines.
func (b *BaseImage) Lines() int { return b.store.Lines() }

// SnapshotBase captures the geometry-invariant half of the machine's
// post-Setup state. Like Snapshot it must run between Setup and Run (panics
// after Run). It additionally requires every PRNG stream to still sit at its
// post-Reset derivation: a base records no PRNG positions, so adopting one at
// another thread count is only exact if the positions were derivable from
// (seed, proc index) alone. A Setup that draws from machine RNGs trips the
// panic and the workload must not declare SnapshotThreadInvariant.
// SnapshotBase does not stamp the machine's image digest (the stamp tracks
// full-image identity, which includes geometry).
func (m *Machine) SnapshotBase() *BaseImage {
	if m.ran {
		panic("commtm: Machine.SnapshotBase after Run; base images capture post-Setup state (Reset first)")
	}
	if !m.k.RandsPristine(m.cfg.Seed) || !m.ms.RandPristine(m.cfg.Seed) {
		panic("commtm: Machine.SnapshotBase with non-pristine PRNG streams; Setup drew from machine RNGs, so its state is not thread-invariant")
	}
	b := &BaseImage{
		cfg:    m.cfg,
		store:  m.store.Snapshot(),
		brk:    m.alloc.Brk(),
		labels: m.ms.SnapshotLabels(),
	}
	h := m.MemDigest()
	h = digestWord(h, uint64(b.brk))
	for _, l := range b.labels {
		h = digestWord(h, uint64(len(l.Name)))
		for i := 0; i < len(l.Name); i++ {
			h = digestWord(h, uint64(l.Name[i]))
		}
		h = digestWord(h, l.ReduceCost)
		h = digestWord(h, l.SplitCost)
	}
	b.digest = h
	return b
}

// RestoreBase reinstates a base image on a machine of any thread count: a
// full ResetSeed to the given seed, then pointer adoption of the base's
// sealed pages, the allocator break, and the label registry. The PRNG
// streams are left at their post-ResetSeed derivations, which is exactly
// where the capturing machine's streams sat (SnapshotBase requires it).
// Cache geometry must still match — only the thread count, seed, protocol,
// and gather knob may differ. RestoreBase never stamp-skips: the caller is
// about to adopt per-workload host state and capture a full per-geometry
// Image on top, so the reset always runs.
func (m *Machine) RestoreBase(b *BaseImage, seed uint64) {
	mc, bc := m.cfg, b.cfg
	mc.Seed, bc.Seed = 0, 0
	mc.Protocol, bc.Protocol = 0, 0
	mc.DisableGather, bc.DisableGather = false, false
	mc.Threads, bc.Threads = 0, 0
	if mc != bc {
		panic(fmt.Sprintf("commtm: RestoreBase of base captured under %+v onto machine configured %+v", b.cfg, m.cfg))
	}
	m.ResetSeed(seed)
	m.store.Restore(b.store)
	m.alloc.Restore(b.brk)
	m.ms.RestoreLabels(b.labels)
}

// PagePool is a content-addressed registry of sealed store pages shared
// across images; see mem.PagePool. The snapshot arena interns every captured
// image (full and base) into one pool so bit-identical pages alias a single
// payload even across unrelated arena keys.
type PagePool = mem.PagePool

// PagePoolStats is a point-in-time snapshot of a PagePool's counters.
type PagePoolStats = mem.PagePoolStats

// NewPagePool returns an empty content-addressed page pool.
func NewPagePool() *PagePool { return mem.NewPagePool() }

// InternPages registers the image's store pages in the pool, rewriting them
// to the pool's canonical payloads. Must happen before the image is shared
// with concurrent readers.
func (img *Image) InternPages(p *PagePool) { p.Intern(img.store) }

// InternPages registers the base's store pages in the pool; see
// Image.InternPages.
func (b *BaseImage) InternPages(p *PagePool) { p.Intern(b.store) }

// RestoreSkips returns how many Restore calls were satisfied by the
// image-digest stamp alone (no Reset, no page work) over the machine's
// lifetime. Host-side telemetry, never zeroed by Reset.
func (m *Machine) RestoreSkips() uint64 { return m.restoreSkips }

// CowCopies returns the cumulative number of sealed backing-store pages the
// machine has copied before a write — the only whole-page copies the
// copy-on-write snapshot scheme performs. Host-side telemetry, never zeroed
// by Reset.
func (m *Machine) CowCopies() uint64 { return m.store.CowCopies() }

// PageStats counts the backing store's materialized pages: shared pages
// alias a snapshot image's sealed payload, private pages are owned by this
// machine alone. The shared fraction is the page-sharing ratio reported in
// commtm-bench host-metrics lines.
func (m *Machine) PageStats() (shared, private int) { return m.store.PageStats() }

// Close releases the machine's coroutine pool (one parked goroutine per
// hardware thread, kept across runs so Reset+Run is allocation-free).
// Callers that discard machines in a long-lived process — sweep arenas,
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
	m.imgStamped = false
	return m.ms.RegisterLabel(spec)
}

// Alloc reserves simulated memory: size bytes at the given power-of-two
// alignment.
func (m *Machine) Alloc(size, align int) Addr {
	m.imgStamped = false
	return m.alloc.Alloc(size, align)
}

// AllocLines reserves n line-aligned cache lines.
func (m *Machine) AllocLines(n int) Addr {
	m.imgStamped = false
	return m.alloc.AllocLines(n)
}

// AllocWords reserves n word-aligned 64-bit words.
func (m *Machine) AllocWords(n int) Addr {
	m.imgStamped = false
	return m.alloc.AllocWords(n)
}

// MemWrite64 initializes simulated memory directly (zero simulated time).
// Use before Run; writing lines that are already cached panics via Drain
// invariants rather than silently diverging.
func (m *Machine) MemWrite64(a Addr, v uint64) {
	m.imgStamped = false
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
	m.imgStamped = false
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
