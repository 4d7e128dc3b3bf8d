// Command commtm-bench regenerates the figures and tables of the paper's
// evaluation. Each experiment id corresponds to one figure or table; run
// with -list to enumerate them, -exp all to run everything.
//
// Usage:
//
//	commtm-bench -list
//	commtm-bench -exp fig9
//	commtm-bench -exp all -scale 0.2 -threads 1,8,32,128
//	commtm-bench -exp fig9 -parallel 0 -json results.jsonl -csv results.csv
//	commtm-bench -oracle -parallel 0
//	commtm-bench -oracle -parallel 0 -det-sample 0.25 -reuse=false -input-arena=false
//	commtm-bench -sweep golden -parallel 0 -json merged.jsonl
//	commtm-bench -sweep golden -shard-dir run1 -json out.jsonl     # journaled; re-run to resume
//	commtm-bench -sweep golden -shards 2 -shard-dir run2 -json merged.jsonl
//	commtm-bench -sweep golden -shard 0/4 -shard-dir run3          # one worker process
//
// -sweep runs a registered job matrix (use -list to enumerate) through the
// staged pipeline — expand → plan → execute → journal → merge → emit. With
// -shard-dir the run journals each completed cell and a re-run resumes,
// skipping journaled cells. -shards N is coordinator mode: it forks N
// -shard worker processes over the same matrix (each journaling its own
// shard under -shard-dir), waits, merges the journals back into
// deterministic cell order through the -json/-csv sinks, and re-runs a
// -shard-check fraction of the merged cells locally as the cross-shard
// determinism gate. Workers killed mid-run (even SIGKILL, mid-append) are
// resumed by re-running the same coordinator command; merged output is
// byte-identical to a single-process -sweep run of the same matrix except
// the wall_ns field. Sweep modes do not append the {"host_metrics": ...}
// JSONL line, precisely so those two outputs diff clean.
//
// -parallel N runs each sweep's cells on N host workers (0 = all cores);
// results stream to the -json / -csv sinks in deterministic cell order, so
// sink output is byte-identical across worker counts (modulo the trailing
// wall-clock field). -reuse (default true) runs cells on per-worker machine
// arenas — one machine per configuration, Reset between cells — instead of
// building a fresh machine per cell; -input-arena (default true) caches
// generated workload inputs (graphs, datasets, references, op streams) by
// (kind, params, seed) and replays them across cells instead of
// regenerating; -snapshots (default true) caches post-Setup machine images
// by (workload, params, seed, config modulo seed and variant) and restores
// them with bulk page copies on repeated cells, skipping Setup entirely.
// Results are bit-identical with any combination of the three (the golden
// gate proves it), only host allocation behavior changes. The input and
// snapshot arenas are process-lifetime: one invocation running several
// experiments (-exp all) shares them across every figure sweep, so
// reference cells and repeated configurations hit across experiments.
// -machine-pool (default true, requires -reuse) makes the machine pool
// process-lifetime too: pooled machines survive between experiments and
// repeated configurations reuse them with a Reset instead of rebuilding,
// with the same bit-identical-results guarantee; -machine-pool=false
// reverts to a pool per sweep. Above all three sits the invocation's result
// memo, which has no flag: a cell whose identity (workload, params, full
// machine configuration) an earlier cell of the process already simulated
// takes that result and simulates nothing, so the cells that fig16 and
// fig16a-e, fig17 and fig18, or tab2 and the figures share run once per
// invocation. Rows stay byte-identical apart from wall_ns; failed cells are
// never memoized; the conformance oracle and the -shards determinism gate
// always re-simulate (EXPERIMENTS.md "The result-memo contract").
// -machine-cap / -input-cap / -snapshot-cap bound the pools with LRU
// eviction for long-lived processes (0, the default, is unbounded);
// -input-budget / -snapshot-budget bound them in bytes instead (estimated
// deep host bytes for inputs, deduplicated resident bytes for snapshots —
// pages shared between cached images are charged once), evicting the least
// recently used entries until back under budget. Caps and budgets
// compose: either limit alone triggers eviction.
// -oracle runs the differential conformance + determinism oracle over the
// reduced matrix (plus the geometry-swept group) and exits nonzero on
// failure; -det-sample F re-runs only a hash-selected fraction F of cells
// in the determinism pass, keeping oracle cost flat on large matrices.
//
// Every experiment also reports per-sweep host metrics (allocations, GC
// cycles, heap high-water from runtime.ReadMemStats, and the engine's
// lifecycle counters: result-memo hits/misses, machines
// built/reused/evicted, input-arena and snapshot-arena hits/misses,
// copy-on-write page copies, restore skips, and the shared/private page
// census with its sharing ratio) on stdout and,
// when -json is given, as a trailing {"host_metrics": ...} JSON line; the
// line also carries the process-lifetime arenas' cumulative stats (entries,
// logical and resident bytes — resident deduplicates pages shared between
// copy-on-write images, so resident/logical is the cross-image sharing
// ratio — and evictions over the whole invocation) — the observability
// that makes lifecycle/allocation regressions visible in committed BENCH
// files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"commtm/internal/experiments"
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/inputs"
	"commtm/internal/workloads/snapshots"
)

// hostMetrics is the per-sweep host-side cost report: deltas of
// runtime.MemStats across one experiment run, plus the sweep engine's
// lifecycle counters (result-memo hits/misses, machines
// built/reused/evicted, input-arena hits/misses) for the same experiment.
// HeapSysBytes is the OS-claimed heap (HeapSys) at the end of the sweep —
// a process-wide high-water mark, monotone across experiments, named for
// what it is so BENCH consumers do not read it as a per-experiment peak.
type hostMetrics struct {
	Exp          string           `json:"exp"`
	WallMS       int64            `json:"wall_ms"`
	Allocs       uint64           `json:"host_allocs"`
	AllocBytes   uint64           `json:"host_alloc_bytes"`
	GCCycles     uint32           `json:"host_gc_cycles"`
	HeapSysBytes uint64           `json:"host_heap_sys_bytes"`
	Lifecycle    sweep.RunMetrics `json:"lifecycle"`
	// Cumulative state of the process-lifetime arenas at the end of this
	// experiment (monotone counters plus resident gauges, spanning every
	// experiment the invocation has run so far). Omitted when the
	// corresponding arena is disabled.
	InputsArena    *inputs.Stats    `json:"inputs_arena,omitempty"`
	SnapshotsArena *snapshots.Stats `json:"snapshots_arena,omitempty"`
	MachinePool    *sweep.PoolStats `json:"machine_pool,omitempty"`
}

func readMemStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func metricsDelta(exp string, before, after runtime.MemStats, wall time.Duration, lc *sweep.RunMetrics) hostMetrics {
	return hostMetrics{
		Exp:          exp,
		WallMS:       wall.Milliseconds(),
		Allocs:       after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		GCCycles:     after.NumGC - before.NumGC,
		HeapSysBytes: after.HeapSys,
		Lifecycle:    *lc,
	}
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (or 'all')")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scale    = flag.Float64("scale", 1.0, "input-size scale factor (1.0 = default sizes)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		threads  = flag.String("threads", "", "comma-separated thread counts (default 1,2,4,8,16,32,64,128)")
		parallel = flag.Int("parallel", 1, "host worker pool size per sweep (0 = all cores, 1 = sequential)")
		reuse    = flag.Bool("reuse", true, "reuse machines across cells via per-worker arenas (false = fresh machine per cell)")
		mPool    = flag.Bool("machine-pool", true, "keep pooled machines alive across experiments of this invocation (requires -reuse; false = pool per sweep)")
		inArena  = flag.Bool("input-arena", true, "cache generated workload inputs across cells (false = regenerate per cell)")
		snaps    = flag.Bool("snapshots", true, "cache post-Setup machine images and restore them on repeated cells (false = run Setup per cell)")
		mCap     = flag.Int("machine-cap", 0, "global cap on pooled machines, LRU-evicted beyond it (0 = unbounded)")
		iCap     = flag.Int("input-cap", 0, "cap on cached workload inputs, LRU-evicted beyond it (0 = unbounded)")
		sCap     = flag.Int("snapshot-cap", 0, "cap on cached machine images, LRU-evicted beyond it (0 = unbounded)")
		iBudget  = flag.Int("input-budget", 0, "byte budget for cached workload inputs (estimated deep host bytes), LRU-evicted beyond it (0 = unbounded)")
		sBudget  = flag.Int("snapshot-budget", 0, "byte budget for cached machine images (deduplicated resident bytes: shared pages charged once), LRU-evicted beyond it (0 = unbounded)")
		jsonOut  = flag.String("json", "", "write per-cell results as JSON lines to this file")
		csvOut   = flag.String("csv", "", "write per-cell results as CSV to this file")
		oracle   = flag.Bool("oracle", false, "run the differential conformance + determinism oracle and exit")
		sweepID  = flag.String("sweep", "", "run a registered job matrix through the staged pipeline (see -list; journaled+resumable with -shard-dir)")
		shards   = flag.Int("shards", 0, "coordinator mode: fork this many -shard worker processes over the -sweep matrix, merge their journals, emit")
		shardSp  = flag.String("shard", "", "worker mode: run only shard i/n of the -sweep matrix, journaling completions to -shard-dir")
		shardDir = flag.String("shard-dir", "", "journal directory for sharded/resumable sweeps")
		shardChk = flag.Float64("shard-check", 0.25, "coordinator: re-run this hash-sampled fraction of merged cells locally as the cross-shard determinism gate (0 disables)")
		killAft  = flag.Int("shard-kill-after", 0, "test hook: SIGKILL this worker after N freshly journaled cells, leaving a torn record (the coordinator forwards it to its last shard only)")
		detSmp   = flag.Float64("det-sample", 0, "determinism oracle: re-run only this hash-selected fraction of cells (0 or 1 = all)")
		detSeed  = flag.Uint64("det-sample-seed", 0, "seed for the determinism-oracle cell sampler")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// Profiling hooks for the performance methodology in EXPERIMENTS.md: the
	// CPU profile covers every experiment the invocation runs; the heap
	// profile is snapshotted after a final GC so it reflects the sweeps'
	// allocation behavior. stopProfiles runs on every exit path (fail uses
	// os.Exit, which skips defers), so profiles survive failed runs too.
	stopProfiles := func() {}
	// exitWith finalizes profiles before exiting; os.Exit skips defers, so
	// every post-profiling exit path must go through it (or fail, below).
	exitWith := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	if *cpuProf != "" || *memProf != "" {
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", *cpuProf, err)
				os.Exit(2)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpu profile: %v\n", err)
				os.Exit(2)
			}
			cpuFile = f
		}
		stopped := false
		stopProfiles = func() {
			if stopped {
				return
			}
			stopped = true
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *memProf != "" {
				f, err := os.Create(*memProf)
				if err != nil {
					fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", *memProf, err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
				}
			}
		}
		defer stopProfiles()
	}
	_ = experiments.Description // link the registry

	sweepMode := *sweepID != "" || *shardSp != "" || *shards > 0
	if *list || (*exp == "" && !*oracle && !sweepMode) {
		fmt.Println("experiments:")
		for _, id := range harness.IDs() {
			e, _ := harness.Get(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		fmt.Println("matrices (for -sweep):")
		for _, id := range harness.MatrixIDs() {
			m, _ := harness.GetMatrix(id)
			fmt.Printf("  %-12s %s\n", id, m.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>, -exp all, -oracle, or -sweep <matrix>")
		}
		return
	}

	opts := harness.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Workers = *parallel
	opts.Reuse = sweep.ReuseOn
	if !*reuse {
		opts.Reuse = sweep.ReuseOff
	}
	opts.Inputs = sweep.InputsOn
	if !*inArena {
		opts.Inputs = sweep.InputsOff
	}
	opts.Snapshots = sweep.SnapshotsOn
	if !*snaps {
		opts.Snapshots = sweep.SnapshotsOff
	}
	opts.MachineCap = *mCap
	opts.InputCap = *iCap
	opts.SnapshotCap = *sCap
	opts.InputBudget = *iBudget
	opts.SnapshotBudget = *sBudget
	// Process-lifetime arenas: one input arena, one snapshot arena, and one
	// machine pool are owned here and handed to every sweep of the
	// invocation, so inputs, machine images, and pooled machines cache
	// across experiments (the reference cell of each figure, repeated
	// configurations between figures). The caps and byte budgets ride on
	// the arenas/pool themselves.
	if *inArena {
		opts.InputArena = inputs.NewBudgeted(*iCap, *iBudget)
	}
	if *snaps {
		opts.SnapshotArena = snapshots.NewBudgeted(*sCap, *sBudget)
	}
	if *reuse && *mPool {
		opts.MachinePool = sweep.NewMachinePool(*mCap)
		defer opts.MachinePool.Close()
	}
	// The invocation's result memo: a cell several figures and tables show
	// (fig16 and fig16a-e, fig17 and fig18, tab2) simulates once. The
	// conformance oracle never sees it (Options.Oracle drops it).
	opts.Memo = &sweep.Memo{}
	opts.DetSample = *detSmp
	opts.DetSampleSeed = *detSeed
	if *threads != "" {
		opts.Threads = nil
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
				exitWith(2)
			}
			opts.Threads = append(opts.Threads, n)
		}
	}

	var closers []func() error
	addSink := func(path string, mk func(f *os.File) sweep.Sink) *os.File {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", path, err)
			exitWith(2)
		}
		s := mk(f)
		opts.Sinks = append(opts.Sinks, s)
		closers = append(closers, func() error {
			if err := s.Close(); err != nil {
				return err
			}
			return f.Close()
		})
		return f
	}
	var jsonFile *os.File
	if *jsonOut != "" {
		jsonFile = addSink(*jsonOut, func(f *os.File) sweep.Sink { return sweep.NewJSONL(f) })
	}
	if *csvOut != "" {
		addSink(*csvOut, func(f *os.File) sweep.Sink { return sweep.NewCSV(f) })
	}
	// reportHost prints one experiment's host-side cost line and, when a
	// JSONL sink is active, appends it as a {"host_metrics": ...} meta line
	// after the experiment's per-cell rows (the JSONL sink is unbuffered, so
	// all rows precede it).
	reportHost := func(hm hostMetrics) {
		if opts.InputArena != nil {
			st := opts.InputArena.Stats()
			hm.InputsArena = &st
		}
		if opts.SnapshotArena != nil {
			st := opts.SnapshotArena.Stats()
			hm.SnapshotsArena = &st
		}
		if opts.MachinePool != nil {
			st := opts.MachinePool.Stats()
			hm.MachinePool = &st
		}
		fmt.Printf("host: allocs=%d alloc_bytes=%d gc_cycles=%d heap_sys_bytes=%d\n",
			hm.Allocs, hm.AllocBytes, hm.GCCycles, hm.HeapSysBytes)
		lc := hm.Lifecycle
		fmt.Printf("lifecycle: memo_hits=%d memo_misses=%d machines_built=%d machine_reuses=%d machines_evicted=%d input_hits=%d input_misses=%d input_evictions=%d snapshot_hits=%d snapshot_misses=%d snapshot_evictions=%d snapshot_bytes=%d snapshot_base_hits=%d snapshot_base_misses=%d\n",
			lc.MemoHits, lc.MemoMisses, lc.MachinesBuilt, lc.MachineReuses, lc.MachinesEvicted, lc.InputHits, lc.InputMisses, lc.InputEvictions,
			lc.SnapshotHits, lc.SnapshotMisses, lc.SnapshotEvictions, lc.SnapshotBytes,
			lc.SnapshotBaseHits, lc.SnapshotBaseMisses)
		// The copy-on-write line: page copies triggered by first writes to
		// shared pages, restores skipped by the image-digest stamp, and the
		// post-run page census summed over cells — sharing = shared pages /
		// all pages, the fraction of live machine memory still aliased to
		// snapshot images when cells finish.
		sharing := 0.0
		if tot := lc.SharedPages + lc.PrivatePages; tot > 0 {
			sharing = float64(lc.SharedPages) / float64(tot)
		}
		fmt.Printf("cow: page_copies=%d restore_skips=%d shared_pages=%d private_pages=%d sharing=%.3f\n",
			lc.CowPageCopies, lc.RestoreSkips, lc.SharedPages, lc.PrivatePages, sharing)
		// Per-cell wall time: total versus slowest single cell. A max close
		// to the total means the sweep is one simulation-bound cell — the
		// profile-me signal shapes like vacation used to hide.
		fmt.Printf("cells: total_wall_ms=%.1f max_cell_wall_ms=%.1f\n",
			float64(lc.CellWallNS)/1e6, float64(lc.MaxCellWallNS)/1e6)
		if hm.InputsArena != nil || hm.SnapshotsArena != nil || hm.MachinePool != nil {
			fmt.Printf("arenas:")
			if st := hm.InputsArena; st != nil {
				fmt.Printf(" inputs{size=%d bytes=%d hits=%d misses=%d evictions=%d}", st.Size, st.Bytes, st.Hits, st.Misses, st.Evictions)
			}
			if st := hm.SnapshotsArena; st != nil {
				// dedup is the content-dedup ratio of all pages ever interned:
				// the fraction that resolved to an already-pooled payload
				// instead of adding a new one.
				dedup := 0.0
				if tot := st.PagesInterned + st.PagesDeduped; tot > 0 {
					dedup = float64(st.PagesDeduped) / float64(tot)
				}
				fmt.Printf(" snapshots{size=%d bytes=%d resident_bytes=%d hits=%d misses=%d evictions=%d base_size=%d base_hits=%d base_misses=%d base_evictions=%d pool_pages=%d page_dedup=%.3f}",
					st.Size, st.Bytes, st.ResidentBytes, st.Hits, st.Misses, st.Evictions,
					st.BaseSize, st.BaseHits, st.BaseMisses, st.BaseEvictions, st.PoolPages, dedup)
			}
			if st := hm.MachinePool; st != nil {
				fmt.Printf(" machines{size=%d hits=%d misses=%d evictions=%d}", st.Size, st.Hits, st.Misses, st.Evictions)
			}
			fmt.Println(" (cumulative over this invocation)")
		}
		if jsonFile != nil {
			if err := json.NewEncoder(jsonFile).Encode(map[string]hostMetrics{"host_metrics": hm}); err != nil {
				fmt.Fprintf(os.Stderr, "host metrics: %v\n", err)
			}
		}
	}
	// closeSinks flushes and closes the output files, reporting (but not
	// exiting on) close errors so it is safe on failure paths.
	closeSinks := func() (ok bool) {
		ok = true
		for _, c := range closers {
			if err := c(); err != nil {
				fmt.Fprintf(os.Stderr, "sink close: %v\n", err)
				ok = false
			}
		}
		closers = nil
		return ok
	}

	// fail prints the diagnostic first (a sink-close error must never
	// swallow it), then flushes the sinks so rows for already-completed
	// cells — including the failing ones — reach the output files, and
	// finalizes any profiles before os.Exit skips the deferred stop.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		closeSinks()
		exitWith(code)
	}

	if sweepMode {
		// Sweep modes deliberately skip the trailing {"host_metrics": ...}
		// JSONL line: the merged multi-shard output must diff clean against a
		// single-process run of the same matrix, row for row.
		if *exp != "" || *oracle {
			fail(2, "-sweep/-shard/-shards run registered matrices; drop -exp/-oracle\n")
		}
		cfg := sweepConfig{
			Matrix: *sweepID, Shards: *shards, ShardSpec: *shardSp, Dir: *shardDir,
			Check: *shardChk, CheckSeed: *detSeed, KillAfter: *killAft,
			Forward: []string{
				"-scale", fmt.Sprint(*scale),
				"-seed", fmt.Sprint(*seed),
				"-parallel", fmt.Sprint(*parallel),
				fmt.Sprintf("-reuse=%t", *reuse),
				fmt.Sprintf("-machine-pool=%t", *mPool),
				fmt.Sprintf("-input-arena=%t", *inArena),
				fmt.Sprintf("-snapshots=%t", *snaps),
			},
		}
		if *threads != "" {
			cfg.Forward = append(cfg.Forward, "-threads", *threads)
		}
		start := time.Now()
		runSweepModes(opts, cfg, fail)
		if !closeSinks() {
			exitWith(1)
		}
		fmt.Printf("(sweep completed in %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *oracle {
		// The oracle runs its own fixed matrix; silently ignoring other
		// selection flags would mislead scripted invocations.
		if *exp != "" {
			fail(2, "-oracle runs only the conformance matrix; drop -exp %q or run it separately\n", *exp)
		}
		if *threads != "" {
			fmt.Fprintln(os.Stderr, "note: -threads is ignored by -oracle (the conformance matrix fixes its thread counts)")
		}
		e, _ := harness.Get("conformance")
		opts.Metrics = &sweep.RunMetrics{}
		start := time.Now()
		before := readMemStats()
		out, err := e.Run(opts)
		if err != nil {
			fail(1, "conformance oracle FAILED:\n%v\n", err)
		}
		wall := time.Since(start)
		fmt.Print(out)
		reportHost(metricsDelta("conformance", before, readMemStats(), wall, opts.Metrics))
		if !closeSinks() {
			exitWith(1)
		}
		fmt.Printf("(oracle completed in %v)\n", wall.Round(time.Millisecond))
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		// "all" means the paper's figures and tables; the conformance
		// oracle is its own mode (-oracle, or -exp conformance explicitly).
		ids = nil
		for _, id := range harness.IDs() {
			if id != "conformance" {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		e, ok := harness.Get(id)
		if !ok {
			fail(2, "unknown experiment %q (use -list)\n", id)
		}
		opts.Metrics = &sweep.RunMetrics{} // fresh lifecycle counters per experiment
		start := time.Now()
		before := readMemStats()
		out, err := e.Run(opts)
		if err != nil {
			fail(1, "%s failed: %v\n", id, err)
		}
		wall := time.Since(start)
		fmt.Print(out)
		reportHost(metricsDelta(id, before, readMemStats(), wall, opts.Metrics))
		fmt.Printf("(%s completed in %v)\n\n", id, wall.Round(time.Millisecond))
	}
	if !closeSinks() {
		exitWith(1)
	}
}
