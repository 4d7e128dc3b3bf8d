// Package sweep is the host-parallel execution engine beneath the paper's
// evaluation: it expands a declarative job matrix (workloads × protocol
// variants × thread counts × seeds × cache geometries) into independent
// cells, runs them across a bounded worker pool, and streams results — in
// deterministic cell order, regardless of completion order — into
// structured sinks (JSON lines, CSV, text tables).
//
// Machines follow the commtm lifecycle: by default (ReuseOn) each worker
// owns an arena of machines, one per distinct configuration-modulo-seed,
// and Resets a machine between the cells it runs — machine construction is
// the dominant allocator of a sweep, so reuse moves allocation from
// per-cell to per-worker. Cells are scheduled with configuration affinity
// (a worker drains one configuration's cells before claiming another) so
// the arena hit rate stays high regardless of worker count; Reset is proven
// invisible by the golden conformance gate, which runs the golden matrix
// with reuse both on and off. ReuseOff restores the fresh-machine-per-cell
// behavior.
//
// Every simulated cell is fully deterministic, so cells are embarrassingly
// parallel on the host; the engine's only synchronization is the work queue
// and an in-order emit buffer. The figure/table layer in internal/harness
// and the differential conformance oracle in oracle.go both run on top of
// this engine.
//
// A result memo (memo.go, Engine.Memo) lets one process simulate each
// distinct cell identity once across all its runs; the determinism gates
// never carry one.
//
// The engine's control flow is a staged pipeline — expand → plan → execute
// → journal → merge → emit. Matrix.Cells is the expand stage; this file
// holds the execute stage's cell runner and worker pool, sched.go its
// scheduler, and pipeline.go the rest (Plan, Journal, Merge, emitter) plus
// the compositions: Engine.Run is the degenerate one (one shard, no
// journal), RunShard/RunSharded — and cmd/commtm-bench's -shard modes —
// are the sharded, crash-resumable ones.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commtm"
	"commtm/internal/arena"
	"commtm/internal/workloads/inputs"
	"commtm/internal/workloads/snapshots"
)

// Workload is the unit of benchmarking: it allocates and initializes
// simulated memory, runs a per-thread body, and validates the final state
// against a sequential reference. Instances are single-use; the matrix
// carries constructors, not instances. (internal/harness aliases this
// interface, so any harness workload runs under the engine unchanged.)
type Workload interface {
	Name() string
	Setup(m *commtm.Machine)
	Body(t *commtm.Thread)
	Validate(m *commtm.Machine) error
}

// Digester is an optional Workload extension: a canonical digest of the
// workload's semantic final state, under which any two semantically
// equivalent outcomes digest equal. Workloads whose raw final memory is
// timing-dependent (e.g. linked-list node linkage, heap layouts) implement
// this so the differential oracle can compare protocols; workloads without
// it are digested with Machine.MemDigest (raw architectural memory).
type Digester interface {
	DigestState(m *commtm.Machine) uint64
}

// Variant labels one protocol configuration of a cell.
type Variant struct {
	Label         string          `json:"label"`
	Protocol      commtm.Protocol `json:"-"`
	DisableGather bool            `json:"disable_gather,omitempty"`
}

// Geometry overrides the cache geometry of a cell; the zero value keeps the
// paper's Table-I defaults.
type Geometry struct {
	Label   string `json:"label,omitempty"`
	L1Bytes int    `json:"l1_bytes,omitempty"`
	L1Ways  int    `json:"l1_ways,omitempty"`
	L2Bytes int    `json:"l2_bytes,omitempty"`
	L2Ways  int    `json:"l2_ways,omitempty"`
}

// IsDefault reports whether the geometry keeps all Table-I defaults.
func (g Geometry) IsDefault() bool {
	return g.L1Bytes == 0 && g.L1Ways == 0 && g.L2Bytes == 0 && g.L2Ways == 0
}

// WorkloadSpec names one workload family and how to build a fresh instance.
type WorkloadSpec struct {
	Name string
	Mk   func() Workload
}

// Matrix is a declarative job matrix. Cells expands it into the full cross
// product; empty Geometries means "default geometry only".
type Matrix struct {
	Workloads  []WorkloadSpec
	Variants   []Variant
	Threads    []int
	Seeds      []uint64
	Geometries []Geometry
}

// Cells expands the matrix into its cross product, in deterministic order:
// workloads outermost, then geometries, threads, seeds, variants innermost
// (so one conformance group — all variants of one configuration — is
// contiguous).
func (mx Matrix) Cells() []Cell {
	geoms := mx.Geometries
	if len(geoms) == 0 {
		geoms = []Geometry{{}}
	}
	var cells []Cell
	for _, w := range mx.Workloads {
		for _, g := range geoms {
			for _, th := range mx.Threads {
				for _, seed := range mx.Seeds {
					for _, v := range mx.Variants {
						cells = append(cells, Cell{
							Index:    len(cells),
							Workload: w.Name,
							Variant:  v,
							Threads:  th,
							Seed:     seed,
							Geometry: g,
							Mk:       w.Mk,
						})
					}
				}
			}
		}
	}
	return cells
}

// Cell is one independent simulation job: a fully specified machine
// configuration plus a workload constructor.
type Cell struct {
	Index    int      `json:"index"`
	Workload string   `json:"workload"`
	Variant  Variant  `json:"variant"`
	Threads  int      `json:"threads"`
	Seed     uint64   `json:"seed"`
	Geometry Geometry `json:"geometry,omitzero"`

	Mk func() Workload `json:"-"`
}

// Config builds the machine configuration of the cell.
func (c Cell) Config() commtm.Config {
	return commtm.Config{
		Threads:       c.Threads,
		Protocol:      c.Variant.Protocol,
		DisableGather: c.Variant.DisableGather,
		Seed:          c.Seed,
		L1Bytes:       c.Geometry.L1Bytes,
		L1Ways:        c.Geometry.L1Ways,
		L2Bytes:       c.Geometry.L2Bytes,
		L2Ways:        c.Geometry.L2Ways,
	}
}

// Key identifies a cell's configuration: the stable identity under which
// the pipeline journals results, assigns shards (ShardOf), and reports
// errors. It deliberately omits Index, so it is stable across matrix
// renumbering; NewPlan requires it to be unique within a plan.
func (c Cell) Key() string {
	s := fmt.Sprintf("%s/%s/%dt/seed=%d", c.Workload, c.Variant.Label, c.Threads, c.Seed)
	if !c.Geometry.IsDefault() {
		s += "/" + c.Geometry.Label
	}
	return s
}

// Result is the outcome of one cell. All fields except WallNS are
// deterministic functions of the cell, so two runs of the same matrix are
// identical modulo wall-clock time.
type Result struct {
	Cell
	Stats  commtm.Stats `json:"stats"`
	Digest string       `json:"digest"` // canonical final-state digest, hex
	Err    string       `json:"err,omitempty"`
	WallNS int64        `json:"wall_ns"`
}

// Results is an engine run's outcome, ordered by cell index.
type Results []Result

// FirstErr returns the first failed cell's error, or nil.
func (rs Results) FirstErr() error {
	for _, r := range rs {
		if r.Err != "" {
			return fmt.Errorf("sweep: cell %s: %s", r.Key(), r.Err)
		}
	}
	return nil
}

// RunCell executes one cell synchronously on a freshly built machine: set
// up and run the workload, validate, and digest the final state. Panics
// from the simulator or workload are captured into Result.Err so one bad
// cell cannot take down a whole sweep. Engine workers run cells through a
// machine arena instead; RunCell is the construct-per-call path for
// single-cell callers (harness.RunOne, tests).
func RunCell(c Cell) Result { return runCell(c, nil, nil, nil, nil, nil) }

// RunMetrics accumulates host-side lifecycle counters across engine runs:
// how many machines were built versus Reset-reused (the duplicate-machine
// cost of tail stealing shows up in MachinesBuilt), how many were evicted
// by the machine cap, and the input arena's cache behavior. Fields are
// updated atomically by concurrent workers; read them only after Run
// returns (or via a snapshot copy). Sharing one RunMetrics across several
// engine runs accumulates totals — cmd/commtm-bench reports it per
// experiment in its host-metrics line.
type RunMetrics struct {
	// Result-memo counters (Engine.Memo): a hit is a cell that took another
	// cell's memoized result and simulated nothing; a miss is a cell that
	// consulted the memo and simulated. Cells the memo cannot key (no
	// canonical params) and memo-less runs count as neither.
	MemoHits        int64 `json:"memo_hits"`
	MemoMisses      int64 `json:"memo_misses"`
	MachinesBuilt   int64 `json:"machines_built"`
	MachineReuses   int64 `json:"machine_reuses"`
	MachinesEvicted int64 `json:"machines_evicted"`
	InputHits       int64 `json:"input_hits"`
	InputMisses     int64 `json:"input_misses"`
	InputEvictions  int64 `json:"input_evictions"`
	// Snapshot arena behavior: a hit is a cell that skipped Setup via
	// Machine.Restore; SnapshotBytes counts the image bytes captured (a
	// cumulative cost counter, not the arena's resident size — the arena's
	// own Stats reports that gauge).
	SnapshotHits      int64 `json:"snapshot_hits"`
	SnapshotMisses    int64 `json:"snapshot_misses"`
	SnapshotEvictions int64 `json:"snapshot_evictions"`
	SnapshotBytes     int64 `json:"snapshot_bytes"`
	// Split-image counters (thread-invariant workloads): a base hit is a
	// whole Setup skipped because another geometry's cell already captured
	// the config-modulo-threads base; base misses count distinct bases
	// captured. Page-pool counters measure cross-image content dedup:
	// PagesDeduped/PagesInterned of all pages ever interned resolved to an
	// already-pooled payload (PagesContentDeduped is the subset that only
	// content addressing — not pointer identity — could have caught).
	SnapshotBaseHits    int64 `json:"snapshot_base_hits"`
	SnapshotBaseMisses  int64 `json:"snapshot_base_misses"`
	PagesInterned       int64 `json:"pages_interned"`
	PagesDeduped        int64 `json:"pages_deduped"`
	PagesContentDeduped int64 `json:"pages_content_deduped"`
	// Copy-on-write page telemetry. CowPageCopies counts sealed store pages
	// copied before a write — the only whole-page copies the copy-on-write
	// snapshot scheme performs (capture and restore are pointer work).
	// RestoreSkips counts Machine.Restore calls satisfied by the
	// image-digest stamp alone. SharedPages and PrivatePages sum each
	// cell's post-run page census: shared pages still alias a snapshot
	// image, private ones were materialized or copied by the cell. The
	// page-sharing ratio shared/(shared+private) is the number to read —
	// it is how much of the working set restores left unshared.
	CowPageCopies int64 `json:"cow_page_copies"`
	RestoreSkips  int64 `json:"restore_skips"`
	SharedPages   int64 `json:"shared_pages"`
	PrivatePages  int64 `json:"private_pages"`
	// Per-cell wall-time telemetry: CellWallNS sums every cell's host
	// wall-clock (lifecycle plus simulation) and MaxCellWallNS records the
	// slowest single cell, so simulation-bound shapes — a sweep whose time
	// is one cell's raw simulation cost, like vacation before the
	// scaling-law fix — are visible from the host-metrics line without a
	// profiler: max ≈ total/cells means uniform cells, max ≈ total means
	// one cell is the sweep.
	CellWallNS    int64 `json:"cell_wall_ns"`
	MaxCellWallNS int64 `json:"max_cell_wall_ns"`
}

// add accumulates (atomically) into rm; nil-safe.
func (rm *RunMetrics) add(built, reuses, evicted int64) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.MachinesBuilt, built)
	atomic.AddInt64(&rm.MachineReuses, reuses)
	atomic.AddInt64(&rm.MachinesEvicted, evicted)
}

// addMemo accumulates (atomically) result-memo hits and misses into rm;
// nil-safe.
func (rm *RunMetrics) addMemo(hits, misses int64) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.MemoHits, hits)
	atomic.AddInt64(&rm.MemoMisses, misses)
}

// addMachines folds a machine pool's per-run stat deltas into rm: misses
// are machine builds, hits are Reset-reuses, evictions are cap evictions.
func (rm *RunMetrics) addMachines(s PoolStats) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.MachinesBuilt, int64(s.Misses))
	atomic.AddInt64(&rm.MachineReuses, int64(s.Hits))
	atomic.AddInt64(&rm.MachinesEvicted, int64(s.Evictions))
}

// addInputs folds an input arena's per-run stat deltas into rm.
func (rm *RunMetrics) addInputs(s inputs.Stats) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.InputHits, int64(s.Hits))
	atomic.AddInt64(&rm.InputMisses, int64(s.Misses))
	atomic.AddInt64(&rm.InputEvictions, int64(s.Evictions))
}

// addCow folds one cell's copy-on-write page telemetry into rm.
func (rm *RunMetrics) addCow(copies, skips, shared, private int64) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.CowPageCopies, copies)
	atomic.AddInt64(&rm.RestoreSkips, skips)
	atomic.AddInt64(&rm.SharedPages, shared)
	atomic.AddInt64(&rm.PrivatePages, private)
}

// addCellWall folds one cell's host wall-clock into rm.
func (rm *RunMetrics) addCellWall(ns int64) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.CellWallNS, ns)
	for {
		cur := atomic.LoadInt64(&rm.MaxCellWallNS)
		if ns <= cur || atomic.CompareAndSwapInt64(&rm.MaxCellWallNS, cur, ns) {
			return
		}
	}
}

// addSnapshots folds a snapshot arena's per-run stat deltas into rm.
func (rm *RunMetrics) addSnapshots(s snapshots.Stats) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.SnapshotHits, int64(s.Hits))
	atomic.AddInt64(&rm.SnapshotMisses, int64(s.Misses))
	atomic.AddInt64(&rm.SnapshotEvictions, int64(s.Evictions))
	atomic.AddInt64(&rm.SnapshotBytes, int64(s.BytesAdded))
	atomic.AddInt64(&rm.SnapshotBaseHits, int64(s.BaseHits))
	atomic.AddInt64(&rm.SnapshotBaseMisses, int64(s.BaseMisses))
	atomic.AddInt64(&rm.PagesInterned, int64(s.PagesInterned))
	atomic.AddInt64(&rm.PagesDeduped, int64(s.PagesDeduped))
	atomic.AddInt64(&rm.PagesContentDeduped, int64(s.ContentDeduped))
}

// arenaKey returns c's machine configuration with the seed erased (Reset
// re-derives every PRNG stream from the next cell's seed, so machines are
// shareable across seeds).
func arenaKey(c Cell) commtm.Config {
	cfg := c.Config()
	cfg.Seed = 0
	return cfg
}

// snapshotKey returns c's configuration with the seed AND the protocol
// variant erased: post-Setup machine state is variant-invariant (Setup
// installs memory, labels, and the allocator break identically whether the
// machine will run Baseline or CommTM — the protocol only changes how Run
// interprets them), so all variants of one (workload, params, seed,
// threads, geometry) configuration share one image. This is where the
// snapshot win comes from inside a single sweep: every conformance group
// runs Setup once. Machine.Restore enforces the same compatibility rule.
func snapshotKey(c Cell) commtm.Config {
	cfg := c.Config()
	cfg.Seed = 0
	cfg.Protocol = 0
	cfg.DisableGather = false
	return cfg
}

// poolKey identifies one pooled machine: the owning worker's index plus the
// machine configuration modulo seed. Machines are mutable (a cell runs on
// one in place), so unlike the input and snapshot arenas the pool must
// never hand one value to two concurrent cells — the worker index
// partitions the key space so that cannot happen, and the generic core's
// per-key singleflight never sees a second claimant. The partition also
// makes cross-run reuse work: worker indexes are stable (0..Workers-1), so
// worker w of a later run finds the machines worker w of an earlier run
// pooled under the same keys.
type poolKey struct {
	Worker int
	Cfg    commtm.Config
}

// PoolStats is the machine pool's stats snapshot — the generic arena's,
// re-exported so cmd/commtm-bench can report it without importing
// internal/arena. Misses are machine builds, Hits are Reset-reuses,
// Evictions are cap evictions (Close on drop or pool Close is not an
// eviction).
type PoolStats = arena.Stats

// MachinePool is the machine arena shared by every worker of an engine run
// — or, when handed to Engine.Machines, by every run of a process: a
// commtm-bench invocation sweeping many figures pools machines across all
// of them, the way Engine.Inputs and Engine.Snapshots already share their
// arenas. It is the generic arena core's third client: the old
// poolLimiter's global cap and in-use pinning are expressed through the
// core's eviction machinery (done-only LRU, pins, release hooks), with
// Close-on-evict as the release hook — machines hold coroutine pools that
// must be released, not just dropped. A nil *MachinePool is valid and pools
// nothing.
type MachinePool struct {
	c arena.Arena[poolKey, *commtm.Machine]
}

// NewMachinePool returns a pool holding at most cap machines across all
// workers, closing the least recently used beyond that; cap <= 0 means
// unbounded (a single sweep's pool is naturally bounded by workers ×
// configurations, so the CLI default is 0).
func NewMachinePool(cap int) *MachinePool {
	p := &MachinePool{}
	p.c.Cap = cap
	p.c.OnRelease = closeMachine
	return p
}

// closeMachine is the pool's release policy: always Close (machines park
// coroutine-pool goroutines that dropping the reference would leak). It
// runs outside the arena lock, so a slow Close stalls no worker.
func closeMachine(_ poolKey, m *commtm.Machine) { m.Close() }

// Stats returns a snapshot of the pool's counters. Nil-safe.
func (p *MachinePool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return p.c.Stats()
}

// Len returns the number of pooled machines. Nil-safe.
func (p *MachinePool) Len() int {
	if p == nil {
		return 0
	}
	return p.c.Len()
}

// Close releases every pooled machine's coroutine pool. The engine closes
// the pools it builds itself when the run ends; the owner of an external
// (cross-run) pool calls Close when the process is done sweeping. Nil-safe.
func (p *MachinePool) Close() {
	if p == nil {
		return
	}
	p.c.RemoveAll()
}

// workerMachines is one worker's view of the shared pool: every key it
// touches carries its worker index, so its machines are private even though
// the pool (and its cap) is global. A nil *workerMachines always builds
// fresh without pooling.
type workerMachines struct {
	pool *MachinePool
	w    int
}

// acquire returns a machine for c — a pooled machine of the right
// configuration when the worker has one, else a freshly built (and pooled)
// one — pinned against cap eviction until release or drop. reused reports
// whether the machine carries a previous cell's state: the CALLER resets it
// (or restores a snapshot over it, which resets internally — resetting here
// too was the double-reset bug this split fixes).
func (wm *workerMachines) acquire(c Cell) (m *commtm.Machine, reused bool) {
	if wm == nil {
		return commtm.New(c.Config()), false
	}
	return wm.pool.c.Acquire(poolKey{wm.w, arenaKey(c)}, func() *commtm.Machine {
		return commtm.New(c.Config()) // outside the arena lock: construction is heavy
	})
}

// release unpins c's machine (making it cap-evictable) after a successful
// cell and applies any pending cap overflow.
func (wm *workerMachines) release(c Cell) {
	if wm == nil {
		return
	}
	wm.pool.c.Release(poolKey{wm.w, arenaKey(c)})
}

// drop discards (and Closes) the worker's machine for c's configuration.
// Workers call it when a cell fails: Reset is designed to recover even a
// panic-drained machine, but a failed cell's machine is cheap to rebuild
// and dropping it removes any doubt. Remove takes even pinned entries, so
// the still-held acquire pin does not keep the suspect machine alive.
func (wm *workerMachines) drop(c Cell) {
	if wm == nil {
		return
	}
	wm.pool.c.Remove(poolKey{wm.w, arenaKey(c)})
}

// has reports whether the worker holds a pooled machine for configuration
// k, feeding affinity-aware steal selection. It is called with the
// scheduler lock held; the pool lock nests strictly inside it (the pool
// never calls into the scheduler, and release hooks run outside the pool
// lock), so the order is safe.
func (wm *workerMachines) has(k commtm.Config) bool {
	return wm != nil && wm.pool.c.Contains(poolKey{wm.w, k})
}

// runCell executes one cell on a machine from the worker's pool view (nil =
// always fresh), handing the input arena (nil = generate fresh) to
// workloads that can replay cached inputs and the snapshot arena (nil =
// always Setup) to workloads that can skip Setup via machine-image restore.
// With a result memo (nil = always simulate), a cell whose identity another
// cell already simulated skips everything after the name check — acquire,
// Setup, Run, Validate and digest — and takes the memoized Stats and digest
// under its own Index and Variant. Machine acquisition happens inside the
// recover window so construction-time panics (invalid configurations) are
// captured like any other cell failure.
func runCell(c Cell, wm *workerMachines, ia *inputs.Arena, sa *snapshots.Arena, memo *Memo, rm *RunMetrics) (res Result) {
	start := time.Now()
	res = Result{Cell: c}
	var m *commtm.Machine
	var cowBefore, skipsBefore uint64
	defer func() {
		res.WallNS = time.Since(start).Nanoseconds()
		rm.addCellWall(res.WallNS)
		if r := recover(); r != nil {
			if _, ok := r.(uncached); !ok {
				res.Err = fmt.Sprintf("panic: %v", r)
			}
		}
		if m != nil && rm != nil {
			shared, private := m.PageStats()
			rm.addCow(int64(m.CowCopies()-cowBefore), int64(m.RestoreSkips()-skipsBefore),
				int64(shared), int64(private))
		}
		if res.Err != "" && m != nil {
			// Only a machine the failed cell actually ran on is suspect; a
			// failure before acquire (workload constructor panic) must not
			// evict the configuration's healthy pooled machine.
			wm.drop(c)
		} else if m != nil {
			wm.release(c)
		}
		if wm == nil && m != nil {
			// Unpooled machine: release its coroutine pool now rather than
			// parking goroutines until process exit.
			m.Close()
		}
	}()
	w := c.Mk()
	if c.Workload != "" && c.Workload != w.Name() {
		// The cell's row name comes from a static accessor (WorkloadSpec /
		// the workloads' Name constants); a mismatch with the instance means
		// the registration diverged from the constructor — fail the cell
		// loudly rather than emit rows under the wrong name.
		res.Err = fmt.Sprintf("workload name mismatch: cell %q, instance %q", c.Workload, w.Name())
		return res
	}
	simulate := func() {
		if u, ok := w.(inputs.User); ok && ia != nil {
			u.UseInputs(ia)
		}
		var reused bool
		m, reused = wm.acquire(c)
		cowBefore, skipsBefore = m.CowCopies(), m.RestoreSkips()
		if wm == nil {
			rm.add(1, 0, 0) // pooled builds are counted from the pool's stat deltas
		}
		// A freshly built machine is already pristine at c's seed; a reused one
		// still holds the previous cell's state and must be ResetSeed — but only
		// on paths that will run Setup. On a snapshot hit, Machine.Restore does
		// its own full ResetSeed before the page copies, so resetting at acquire
		// (as the old arena did unconditionally) reset the machine twice per
		// hit; the reset is deferred to the paths that need it instead.
		pristine := !reused
		ensurePristine := func() {
			if !pristine {
				m.ResetSeed(c.Seed)
				pristine = true
			}
		}
		installed := false
		if sa != nil {
			if sn, ok := w.(snapshots.Snapshotter); ok {
				if params, compatible := sn.SnapshotParams(); compatible {
					// The snapshot key is the workload identity plus the
					// configuration modulo seed and protocol variant: two cells
					// with equal keys produce bit-identical post-Setup state, so
					// one captured image serves every variant of a configuration.
					key := snapshots.Key{Workload: w.Name(), Params: params, Seed: c.Seed, Config: snapshotKey(c)}
					// On a miss this caller's Setup runs (on its own machine,
					// reset first if reused) and the captured image is published;
					// on a hit the cached image is copied over the machine by
					// Restore — whose internal ResetSeed is the hit path's one and
					// only reset — and the host state adopted, skipping Setup.
					var ent snapshots.Entry
					var hit bool
					if ti, isTI := w.(snapshots.ThreadInvariant); isTI && ti.SnapshotThreadInvariant() {
						// Thread-invariant workloads split the snapshot: the base
						// (pages, brk, labels) is keyed with the thread count
						// erased too, so the first geometry's Setup serves the
						// whole thread sweep — later geometries adopt the base via
						// RestoreBase (its ResetSeed is that path's one reset) and
						// only capture their thin full-key entry on top.
						bkey := key
						bkey.Config.Threads = 0
						ent, hit = sa.LoadSplit(key, bkey,
							func() {
								ensurePristine()
								w.Setup(m)
							},
							func(be snapshots.BaseEntry) {
								m.RestoreBase(be.Img, c.Seed)
								ti.AdoptBaseHost(m, be.Host)
							},
							func() snapshots.BaseEntry {
								return snapshots.BaseEntry{Img: m.SnapshotBase(), Host: sn.SnapshotHost()}
							},
							func() snapshots.Entry {
								return snapshots.Entry{Img: m.Snapshot(), Host: sn.SnapshotHost()}
							})
					} else {
						ent, hit = sa.Load(key, func() snapshots.Entry {
							ensurePristine()
							w.Setup(m)
							return snapshots.Entry{Img: m.Snapshot(), Host: sn.SnapshotHost()}
						})
					}
					if hit {
						m.Restore(ent.Img)
						sn.AdoptHost(m, ent.Host)
					}
					installed = true
				}
			}
		}
		if !installed {
			ensurePristine()
			w.Setup(m)
		}
		m.Run(w.Body)
		res.Stats = m.Stats()
		if err := w.Validate(m); err != nil {
			res.Err = err.Error()
			return
		}
		var d uint64
		if dg, ok := w.(Digester); ok {
			d = dg.DigestState(m)
		} else {
			d = m.MemDigest()
		}
		res.Digest = fmt.Sprintf("%016x", d)
	}
	key, ok := memo.keyOf(c, w)
	if !ok {
		simulate()
		return res
	}
	ent, hit := memo.c.Load(key, func() memoEntry {
		rm.addMemo(0, 1)
		simulate()
		if res.Err != "" {
			panic(uncached{}) // never cache a failure; see uncached
		}
		return memoEntry{stats: res.Stats, digest: res.Digest}
	})
	if hit {
		rm.addMemo(1, 0)
		res.Stats, res.Digest = ent.stats, ent.digest
	}
	return res
}

// Reuse selects the machine-lifecycle policy of an engine run.
type Reuse int

const (
	// ReuseOn (the default) gives each worker a machine arena: one machine
	// per distinct configuration-modulo-seed, Reset between cells. Results
	// are bit-identical to ReuseOff — the golden conformance gate proves it.
	ReuseOn Reuse = iota
	// ReuseOff builds a fresh machine per cell, the pre-lifecycle behavior.
	// The differential value of running a matrix both ways is the reuse
	// cross-check documented in EXPERIMENTS.md.
	ReuseOff
)

// InputMode selects the workload-input arena policy of an engine run.
type InputMode int

const (
	// InputsOn (the default) shares one workload-input arena across the
	// run's workers: generated inputs (graphs, datasets, references, op
	// streams) are cached by (kind, params, seed) and replayed on later
	// cells instead of regenerated. Results are bit-identical to InputsOff —
	// the golden conformance gate runs the golden matrix both ways.
	InputsOn InputMode = iota
	// InputsOff regenerates every workload input per cell, the
	// pre-input-arena behavior.
	InputsOff
)

// SnapshotMode selects the machine-image snapshot policy of an engine run.
type SnapshotMode int

const (
	// SnapshotsOn (the default) shares one snapshot arena across the run's
	// workers: the first cell of each (workload, params, seed, config modulo
	// seed) runs Setup and captures the post-Setup machine image; repeated
	// cells adopt its copy-on-write pages by pointer and skip Setup entirely.
	// Results are bit-identical to SnapshotsOff — the golden conformance
	// gate runs the golden matrix both ways against the same goldens.
	SnapshotsOn SnapshotMode = iota
	// SnapshotsOff runs Setup on every cell, the pre-snapshot behavior.
	SnapshotsOff
)

// Engine runs cells on a bounded worker pool.
type Engine struct {
	// Workers bounds host parallelism; <= 0 means runtime.GOMAXPROCS(0),
	// 1 runs strictly sequentially.
	Workers int
	// Sinks receive every result in cell-index order as soon as its ordered
	// prefix completes, so streamed output is byte-identical between
	// sequential and parallel runs (modulo wall-clock fields).
	Sinks []Sink
	// FailFast skips cells not yet started once any cell fails, so a broken
	// workload surfaces without simulating the rest of the matrix. Skipped
	// cells report Err; in-flight cells still finish. Leave false when
	// every cell's verdict matters (the conformance oracle).
	FailFast bool
	// Reuse selects the machine lifecycle: ReuseOn (default) runs cells on
	// per-worker machine arenas with configuration-affinity scheduling;
	// ReuseOff runs every cell on a fresh machine in plain index order.
	Reuse Reuse
	// InputMode selects the workload-input arena policy: InputsOn (default)
	// caches generated inputs across cells, InputsOff regenerates per cell.
	// Ignored when Inputs supplies an external arena.
	InputMode InputMode
	// SnapshotMode selects the machine-image snapshot policy: SnapshotsOn
	// (default) captures post-Setup machine images and restores them on
	// repeated cells, SnapshotsOff runs Setup per cell. Ignored when
	// Snapshots supplies an external arena.
	SnapshotMode SnapshotMode
	// Inputs, when non-nil, is an externally owned workload-input arena the
	// run uses instead of building its own: a long-lived process (one
	// commtm-bench invocation running many figure sweeps, a server) hands
	// one arena across all its engine runs so inputs cache process-wide.
	// The engine never drops an external arena; per-run hit/miss deltas
	// still land in Metrics.
	Inputs *inputs.Arena
	// Snapshots is the snapshot-arena counterpart of Inputs: an externally
	// owned machine-image arena shared across runs.
	Snapshots *snapshots.Arena
	// Machines is the machine-pool counterpart of Inputs/Snapshots: an
	// externally owned cross-sweep pool shared across runs, so a process
	// running many figure sweeps builds each (worker, configuration)
	// machine once instead of once per run. The engine never closes an
	// external pool; per-run build/reuse/evict deltas still land in
	// Metrics. Only meaningful under ReuseOn (ReuseOff never pools), and
	// the pool's own cap applies (Engine.MachineCap covers engine-built
	// pools only). Engine runs sharing one pool must not execute
	// concurrently with each other — worker indexes would collide on the
	// same mutable machines.
	Machines *MachinePool
	// MachineCap, when > 0, globally bounds the engine-built pool's
	// machines across all workers, evicting (and Closing) the least
	// recently used beyond it. 0 — the CLI-sweep default — leaves pools
	// unbounded (a sweep's pool is naturally bounded by workers ×
	// configurations); long-lived processes running many matrices set it to
	// bound machine memory. Ignored when Machines supplies an external
	// pool (which carries its own cap).
	MachineCap int
	// InputCap, when > 0, bounds the engine-built input arena's entries
	// with the same LRU policy. 0 (default) is unbounded. External arenas
	// carry their own cap.
	InputCap int
	// SnapshotCap bounds the engine-built snapshot arena's entries the same
	// way. 0 (default) is unbounded.
	SnapshotCap int
	// InputBudget, when > 0, bounds the engine-built input arena by
	// estimated cached bytes instead of (or alongside) the entry cap —
	// whichever limit is exceeded evicts LRU-first. External arenas carry
	// their own budget.
	InputBudget int
	// SnapshotBudget bounds the engine-built snapshot arena by DEDUPLICATED
	// resident image bytes the same way: pages shared between cached images
	// (copy-on-write siblings, content-pooled duplicates) are charged once,
	// so the budget admits everything that physically fits rather than
	// evicting when the logical sum — which multi-counts shared pages —
	// crosses it. Byte budgets are the paper-scale knob: at -scale 1 images
	// run to megabytes each, so an entry cap either admits too much memory
	// or thrashes; a budget sizes the arena by true footprint.
	SnapshotBudget int
	// Memo, when non-nil, is a result memo shared across runs: a cell
	// whose identity (workload, params, full machine configuration) some
	// cell already simulated takes that result instead of simulating, and
	// is emitted in order like any other. Engines built by the determinism
	// gates never carry one, so they always re-simulate.
	Memo *Memo
	// Metrics, when non-nil, accumulates host-side lifecycle counters
	// (machines built/reused/evicted, input arena hits/misses) across this
	// engine's runs. Counters add up across runs sharing one RunMetrics.
	Metrics *RunMetrics
}

// Run executes all cells and returns their results ordered by cell index.
// Cell-level failures (validation errors, panics) are reported in the
// results, not as an error; the returned error covers sink I/O only. Run
// is the staged pipeline's degenerate composition: one shard, no journal,
// live ordered emit.
func (e *Engine) Run(cells []Cell) (Results, error) {
	return e.run(cells, ExecOptions{})
}

// run is the execute stage: the worker pool that Run, RunShard, and the
// multi-process worker mode all share. Beyond plain execution it honors
// ExecOptions — emit already-journaled results without re-running them,
// journal each fresh completion before emit, and stop claiming when asked
// — all of which the zero ExecOptions disables.
func (e *Engine) run(cells []Cell, x ExecOptions) (Results, error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make(Results, len(cells))
	em := &emitter{results: results, sinks: e.Sinks}
	reuse := e.Reuse == ReuseOn
	q := newSched(cells, reuse)

	// One input arena and one snapshot arena are shared by every worker:
	// cached entries are immutable host data, so sharing costs one short
	// critical section per Setup and buys cross-worker hits (e.g. all seeds
	// of one configuration reuse one generated graph, which per-worker
	// machine arenas — mutable state — can never do). Externally owned
	// arenas (Engine.Inputs / Engine.Snapshots) extend the sharing across
	// runs; metrics then report this run's deltas.
	ia := e.Inputs
	if ia == nil && e.InputMode == InputsOn {
		ia = inputs.NewBudgeted(e.InputCap, e.InputBudget)
	}
	sa := e.Snapshots
	if sa == nil && e.SnapshotMode == SnapshotsOn {
		sa = snapshots.NewBudgeted(e.SnapshotCap, e.SnapshotBudget)
	}
	// The machine pool is shared by every worker the same way (keys are
	// partitioned by worker index, so sharing the structure costs one short
	// critical section per acquire/release while the cap stays global).
	// Externally owned pools (Engine.Machines) extend machine reuse across
	// runs; engine-built pools are closed when the run ends.
	var pool *MachinePool
	if reuse {
		pool = e.Machines
		if pool == nil {
			pool = NewMachinePool(e.MachineCap)
		}
	}
	iaBefore, saBefore, mpBefore := ia.Stats(), sa.Stats(), pool.Stats()

	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wm *workerMachines
			var have func(commtm.Config) bool
			if reuse {
				wm = &workerMachines{pool: pool, w: w}
				have = wm.has
			}
			var cur *schedGroup
			for {
				if x.Stop != nil && x.Stop() {
					return
				}
				g, i, ok := q.next(cur, have)
				if !ok {
					return
				}
				cur = g
				if r, ok := x.done(cells[i]); ok {
					// Completed by an interrupted run: emit the journaled
					// result without re-running — no machine, no metrics.
					// Journaled failures still arm FailFast.
					if r.Err != "" {
						failed.Store(true)
					}
					em.put(i, r)
					continue
				}
				if e.FailFast && failed.Load() {
					em.put(i, Result{Cell: cells[i], Err: "skipped: earlier cell failed"})
					continue
				}
				r := runCell(cells[i], wm, ia, sa, e.Memo, e.Metrics)
				if r.Err != "" {
					failed.Store(true)
				}
				// Journal before emit: a crash after the journal write re-emits
				// on resume; a crash before it re-runs. Skipped (FailFast)
				// cells are never journaled — a resume runs them for real.
				x.Journal.record(r)
				em.put(i, r)
			}
		}(w)
	}
	wg.Wait()
	e.Metrics.addMachines(pool.Stats().Delta(mpBefore))
	e.Metrics.addInputs(ia.Stats().Delta(iaBefore))
	e.Metrics.addSnapshots(sa.Stats().Delta(saBefore))
	if pool != nil && pool != e.Machines {
		pool.Close()
	}
	err := em.err
	if err == nil {
		// A journal that stopped persisting makes the run non-resumable;
		// surface it like a sink failure rather than return silently partial
		// durability.
		err = x.Journal.Err()
	}
	return results, err
}
