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
//
// -scale must be finite and above 0, -threads a comma-separated list of
// counts in 1..128 (one hardware thread per simulated core), and -parallel
// 0 or above; anything else exits 2 before a cell runs.
//
// -parallel N runs each sweep's cells on N host workers (0 = all cores);
// results stream to the -json / -csv sinks in deterministic cell order, so
// sink output is byte-identical across worker counts (modulo the trailing
// wall-clock field). -reuse (default true) gives each worker one machine,
// Reset between consecutive cells of one configuration and rebuilt when the
// configuration changes, instead of building a fresh machine per cell;
// -input-arena (default true) caches generated workload inputs (graphs,
// datasets, references, op streams) by (kind, params, seed) and replays
// them across cells instead of regenerating. Results are bit-identical with
// either combination (the golden gate proves it), only host allocation
// behavior changes. The input arena is process-lifetime and unbounded: one
// invocation running several experiments (-exp all) shares it across every
// figure sweep, so reference cells and repeated configurations hit across
// experiments, and nothing is evicted. Above both sits the invocation's
// result memo, which has no flag: a cell whose identity (workload, params,
// full machine configuration) an earlier cell of the process already
// simulated takes that result and simulates nothing, so the cells that fig16
// and fig16a-e, fig17 and fig18, or tab2 and the figures share run once per
// invocation. Rows stay byte-identical apart from wall_ns; failed cells are
// never memoized; the conformance oracle always re-simulates (EXPERIMENTS.md
// "The result-memo contract").
// -oracle runs the differential conformance + determinism oracle over the
// reduced matrix (plus the geometry-swept group) and exits nonzero on
// failure; -det-sample F re-runs only a hash-selected fraction F of cells
// in the determinism pass, keeping oracle cost flat on large matrices.
//
// Every experiment also reports per-sweep host metrics (allocations, GC
// cycles, heap high-water from runtime.ReadMemStats, and the engine's
// lifecycle counters: result-memo hits/misses, machines built/reused and
// input-arena hits/misses) on stdout and, when -json is given, as a
// trailing {"host_metrics": ...} JSON line; the line also carries the
// process-lifetime input arena's cumulative stats (entries, hits and misses
// over the whole invocation) — the observability that makes
// lifecycle/allocation regressions visible in committed BENCH files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"commtm"
	"commtm/internal/experiments"
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/inputs"
)

// hostMetrics is the per-sweep host-side cost report: deltas of
// runtime.MemStats across one experiment run, plus the sweep engine's
// lifecycle counters (result-memo hits/misses, machines built/reused,
// input-arena hits/misses) for the same experiment.
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
	// Cumulative state of the process-lifetime input arena at the end of
	// this experiment (monotone counters plus a size gauge, spanning every
	// experiment the invocation has run so far). Omitted when the arena is
	// disabled.
	InputsArena *inputs.Stats `json:"inputs_arena,omitempty"`
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
		reuse    = flag.Bool("reuse", true, "reuse one machine per worker across cells of a configuration (false = fresh machine per cell)")
		inArena  = flag.Bool("input-arena", true, "cache generated workload inputs across cells (false = regenerate per cell)")
		jsonOut  = flag.String("json", "", "write per-cell results as JSON lines to this file")
		csvOut   = flag.String("csv", "", "write per-cell results as CSV to this file")
		oracle   = flag.Bool("oracle", false, "run the differential conformance + determinism oracle and exit")
		detSmp   = flag.Float64("det-sample", 0, "determinism oracle: re-run only this hash-selected fraction of cells (any value outside (0, 1) = all)")
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

	if *list || (*exp == "" && !*oracle) {
		fmt.Println("experiments:")
		for _, id := range harness.IDs() {
			e, _ := harness.Get(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>, -exp all, or -oracle")
		}
		return
	}
	threadCounts, err := parseSizes(*scale, *threads, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		exitWith(2)
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
	// The process-lifetime input arena is owned here and handed to every
	// sweep of the invocation, so inputs cache across experiments (the
	// reference cell of each figure, repeated configurations between
	// figures).
	if *inArena {
		opts.InputArena = inputs.New()
	}
	// The invocation's result memo: a cell several figures and tables show
	// (fig16 and fig16a-e, fig17 and fig18, tab2) simulates once. The
	// conformance oracle never sees it (Options.Oracle drops it).
	opts.Memo = &sweep.Memo{}
	opts.DetSample = *detSmp
	opts.DetSampleSeed = *detSeed
	if threadCounts != nil {
		opts.Threads = threadCounts
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
		fmt.Printf("host: allocs=%d alloc_bytes=%d gc_cycles=%d heap_sys_bytes=%d\n",
			hm.Allocs, hm.AllocBytes, hm.GCCycles, hm.HeapSysBytes)
		lc := hm.Lifecycle
		fmt.Printf("lifecycle: memo_hits=%d memo_misses=%d machines_built=%d machine_reuses=%d input_hits=%d input_misses=%d\n",
			lc.MemoHits, lc.MemoMisses, lc.MachinesBuilt, lc.MachineReuses, lc.InputHits, lc.InputMisses)
		// Per-cell wall time: total versus slowest single cell. A max close
		// to the total means the sweep is one simulation-bound cell — the
		// profile-me signal shapes like vacation used to hide.
		fmt.Printf("cells: total_wall_ms=%.1f max_cell_wall_ms=%.1f\n",
			float64(lc.CellWallNS)/1e6, float64(lc.MaxCellWallNS)/1e6)
		if st := hm.InputsArena; st != nil {
			fmt.Printf("arenas: inputs{size=%d hits=%d misses=%d} (cumulative over this invocation)\n",
				st.Size, st.Hits, st.Misses)
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

// parseSizes validates the sizing flags. scale must be finite and above 0:
// zero, negative and NaN scales would clamp every workload to one op and
// print plausible tables. threads, when set, is a comma-separated list of
// counts in 1..commtm.MaxThreads; nil means the default sweep. parallel
// must be 0 (all host cores) or above.
func parseSizes(scale float64, threads string, parallel int) ([]int, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("bad scale %v (want a finite number above 0)", scale)
	}
	if parallel < 0 {
		return nil, fmt.Errorf("bad parallel %d (want 0 for all cores, or a worker count)", parallel)
	}
	if threads == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 || n > commtm.MaxThreads {
			return nil, fmt.Errorf("bad thread count %q (want 1..%d)", part, commtm.MaxThreads)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
