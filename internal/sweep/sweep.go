// Package sweep is the host-parallel execution engine beneath the paper's
// evaluation: it expands a declarative job matrix (workloads × protocol
// variants × thread counts × seeds × cache geometries) into independent
// cells, runs them across a bounded worker pool, and streams results — in
// deterministic cell order, regardless of completion order — into
// structured sinks (JSON lines, CSV, text tables).
//
// Machines follow the commtm lifecycle: by default (ReuseOn) each worker
// keeps one machine, Resets it for the next cell of the same
// configuration-modulo-seed and replaces it when the configuration changes
// — machine construction is the dominant allocator of a sweep, so reuse
// moves allocation from per-cell to per-worker. Cells are scheduled with
// configuration affinity (a worker drains one configuration's cells before
// claiming another), so a worker rebuilds only when it moves on; Reset is
// proven invisible by the golden conformance gate, which runs the golden
// matrix with reuse both on and off. ReuseOff restores the
// fresh-machine-per-cell behavior.
//
// Every simulated cell is fully deterministic, so cells are embarrassingly
// parallel on the host; the engine's only synchronization is the work queue
// and an in-order emit buffer. The figure/table layer in internal/harness
// and the differential conformance oracle in oracle.go both run on top of
// this engine.
//
// Above the machines sit the only two caches: the workload-input arena
// (internal/workloads/inputs, Engine.InputMode), which replays generated
// inputs across cells, and the result memo (memo.go, Engine.Memo), which
// lets one process simulate each distinct cell identity once across all its
// runs; the determinism gates never carry a memo.
//
// Engine.Run is one worker pool: this file holds it and its cell runner,
// sched.go its scheduler, and sink.go the sinks its in-order emitter feeds.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commtm"
	"commtm/internal/workloads/inputs"
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
// errors are reported, the golden file records cells and the determinism
// sampler selects them. It deliberately omits Index, so it is stable across
// matrix renumbering.
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
// cell cannot take down a whole sweep. Engine workers reuse their machine
// instead; RunCell is the construct-per-call path for single-cell callers
// (harness.RunOne, tests).
func RunCell(c Cell) Result { return runCell(c, nil, nil, nil, nil) }

// RunMetrics accumulates host-side lifecycle counters across engine runs:
// how many machines were built versus Reset-reused (the duplicate-machine
// cost of tail stealing shows up in MachinesBuilt), and the input arena's
// cache behavior. Fields are updated atomically by concurrent workers; read
// them only after Run returns (or via a snapshot copy). Sharing one
// RunMetrics across several engine runs accumulates totals — cmd/commtm-bench
// reports it per experiment in its host-metrics line.
type RunMetrics struct {
	// Result-memo counters (Engine.Memo): a hit is a cell that took another
	// cell's memoized result and simulated nothing; a miss is a cell that
	// consulted the memo and simulated. Cells the memo cannot key (no
	// canonical params) and memo-less runs count as neither.
	MemoHits      int64 `json:"memo_hits"`
	MemoMisses    int64 `json:"memo_misses"`
	MachinesBuilt int64 `json:"machines_built"`
	MachineReuses int64 `json:"machine_reuses"`
	InputHits     int64 `json:"input_hits"`
	InputMisses   int64 `json:"input_misses"`
	// The engine takes no machine images and copies no pages, so nothing
	// increments these four and they read 0. They stay only because
	// BENCHMARK.json names them as per-layer metrics; they leave together
	// with those names.
	SnapshotHits     int64 `json:"snapshot_hits"`
	SnapshotMisses   int64 `json:"snapshot_misses"`
	SnapshotBaseHits int64 `json:"snapshot_base_hits"`
	CowPageCopies    int64 `json:"cow_page_copies"`
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

// addMachine counts (atomically) one machine build, or one Reset-reuse when
// reused, into rm; nil-safe.
func (rm *RunMetrics) addMachine(reused bool) {
	if rm == nil {
		return
	}
	if reused {
		atomic.AddInt64(&rm.MachineReuses, 1)
	} else {
		atomic.AddInt64(&rm.MachinesBuilt, 1)
	}
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

// addInputs folds an input arena's per-run stat deltas into rm.
func (rm *RunMetrics) addInputs(s inputs.Stats) {
	if rm == nil {
		return
	}
	atomic.AddInt64(&rm.InputHits, int64(s.Hits))
	atomic.AddInt64(&rm.InputMisses, int64(s.Misses))
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

// arenaKey returns c's machine configuration with the seed erased (Reset
// re-derives every PRNG stream from the next cell's seed, so a machine is
// reusable across seeds).
func arenaKey(c Cell) commtm.Config {
	cfg := c.Config()
	cfg.Seed = 0
	return cfg
}

// workerMachines is one worker's machine slot: the machine it built last and
// that machine's arena key. A nil *workerMachines builds a fresh machine per
// cell (ReuseOff).
type workerMachines struct {
	m   *commtm.Machine
	key commtm.Config
}

// acquire returns a machine for c and counts it into rm. A cell whose arena
// key matches the slot's takes the slot's machine (reused=true: it still
// holds the previous cell's state and the CALLER ResetSeeds it); any other
// key Closes the slot's machine and builds a new one in its place.
func (wm *workerMachines) acquire(c Cell, rm *RunMetrics) (m *commtm.Machine, reused bool) {
	if wm == nil {
		rm.addMachine(false)
		return commtm.New(c.Config()), false
	}
	k := arenaKey(c)
	if wm.m != nil && wm.key == k {
		rm.addMachine(true)
		return wm.m, true
	}
	wm.drop()
	wm.m, wm.key = commtm.New(c.Config()), k
	rm.addMachine(false)
	return wm.m, false
}

// drop Closes and forgets the slot's machine. Workers call it when a cell
// fails — Reset is designed to recover even a panic-drained machine, but a
// failed cell's machine is cheap to rebuild and dropping it removes any
// doubt — and when they exit, so no machine outlives its engine run with
// parked coroutine goroutines. Nil-safe.
func (wm *workerMachines) drop() {
	if wm == nil || wm.m == nil {
		return
	}
	wm.m.Close()
	wm.m = nil
}

// runCell executes one cell on a machine from the worker's slot (nil =
// always fresh), handing the input arena (nil = generate fresh) to
// workloads that can replay cached inputs. With a result memo (nil = always
// simulate), a cell whose identity another cell already simulated skips
// everything after the name check — acquire, Setup, Run, Validate and
// digest — and takes the memoized Stats and digest under its own Index and
// Variant. Machine acquisition happens inside the recover window so
// construction-time panics (invalid configurations) are captured like any
// other cell failure.
func runCell(c Cell, wm *workerMachines, ia *inputs.Arena, memo *Memo, rm *RunMetrics) (res Result) {
	start := time.Now()
	res = Result{Cell: c}
	var m *commtm.Machine
	defer func() {
		res.WallNS = time.Since(start).Nanoseconds()
		rm.addCellWall(res.WallNS)
		if r := recover(); r != nil {
			if _, ok := r.(uncached); !ok {
				res.Err = fmt.Sprintf("panic: %v", r)
			}
		}
		switch {
		case m == nil:
			// Nothing acquired (memo hit, or a failure before acquire such
			// as a workload constructor panic): the slot's machine is healthy.
		case wm == nil:
			// Fresh per-cell machine: release its coroutine pool now rather than
			// parking goroutines until process exit.
			m.Close()
		case res.Err != "":
			wm.drop()
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
		m, reused = wm.acquire(c, rm)
		if reused {
			// A fresh machine is already pristine at c's seed; a reused one
			// still holds the previous cell's state.
			m.ResetSeed(c.Seed)
		}
		w.Setup(m)
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
	// ReuseOn (the default) gives each worker one machine, Reset between
	// consecutive cells of one configuration-modulo-seed and rebuilt when
	// the configuration changes. Results are bit-identical to ReuseOff — the
	// golden conformance gate proves it.
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
	// one machine per worker with configuration-affinity scheduling;
	// ReuseOff runs every cell on a fresh machine in plain index order.
	Reuse Reuse
	// InputMode selects the workload-input arena policy: InputsOn (default)
	// caches generated inputs across cells, InputsOff regenerates per cell.
	// Ignored when Inputs supplies an external arena.
	InputMode InputMode
	// Inputs, when non-nil, is an externally owned workload-input arena the
	// run uses instead of building its own: a long-lived process (one
	// commtm-bench invocation running many figure sweeps, a server) hands
	// one arena across all its engine runs so inputs cache process-wide.
	// The engine never drops an external arena; per-run hit/miss deltas
	// still land in Metrics.
	Inputs *inputs.Arena
	// Memo, when non-nil, is a result memo shared across runs: a cell
	// whose identity (workload, params, full machine configuration) some
	// cell already simulated takes that result instead of simulating, and
	// is emitted in order like any other. Engines built by the determinism
	// gates never carry one, so they always re-simulate.
	Memo *Memo
	// Metrics, when non-nil, accumulates host-side lifecycle counters
	// (machines built/reused, memo and input arena hits/misses) across this
	// engine's runs. Counters add up across runs sharing one RunMetrics.
	Metrics *RunMetrics
}

// Run executes all cells and returns their results ordered by cell index,
// streaming each to the sinks as soon as its ordered prefix completes.
// Cell-level failures (validation errors, panics) are reported in the
// results, not as an error; the returned error covers sink I/O only.
func (e *Engine) Run(cells []Cell) (Results, error) {
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

	// One input arena is shared by every worker: cached entries are
	// immutable host data, so sharing costs one short critical section per
	// Setup and buys cross-worker hits (e.g. all seeds of one configuration
	// reuse one generated graph). An externally owned arena (Engine.Inputs)
	// extends the sharing across runs; metrics then report this run's
	// deltas.
	ia := e.Inputs
	if ia == nil && e.InputMode == InputsOn {
		ia = inputs.New()
	}
	iaBefore := ia.Stats()

	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wm *workerMachines
			if reuse {
				wm = &workerMachines{}
				defer wm.drop()
			}
			var cur *schedGroup
			for {
				g, i, ok := q.next(cur)
				if !ok {
					return
				}
				cur = g
				if e.FailFast && failed.Load() {
					em.put(i, Result{Cell: cells[i], Err: "skipped: earlier cell failed"})
					continue
				}
				r := runCell(cells[i], wm, ia, e.Memo, e.Metrics)
				if r.Err != "" {
					failed.Store(true)
				}
				em.put(i, r)
			}
		}()
	}
	wg.Wait()
	e.Metrics.addInputs(ia.Stats().Delta(iaBefore))
	return results, em.err
}

// emitter reorders completions back into cell-index order and forwards the
// longest completed prefix to the sinks.
type emitter struct {
	mu      sync.Mutex
	results Results
	done    int // results[:done] flushed to sinks
	pending map[int]bool
	sinks   []Sink
	err     error
}

func (em *emitter) put(i int, r Result) {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.results[i] = r
	if em.pending == nil {
		em.pending = make(map[int]bool)
	}
	em.pending[i] = true
	for em.pending[em.done] {
		delete(em.pending, em.done)
		for _, s := range em.sinks {
			if err := s.Emit(em.results[em.done]); err != nil && em.err == nil {
				em.err = fmt.Errorf("sweep: sink: %w", err)
			}
		}
		em.done++
	}
}
