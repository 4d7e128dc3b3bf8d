// Command perfbench is the end-to-end benchmark of the CommTM simulator. It
// runs one named workload, checks every simulated result (the workloads'
// own validators, a recorded per-cell reference at the default seed, and
// repeat-run bit identity), and prints one JSON object as the last line of
// standard output: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run.
//
// Run it from the repository root through run.sh, which builds this
// program and cmd/commtm-bench from source first:
//
//	bash perfbench/run.sh --workload seeds --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload apps_x4 --trace 1
//	bash perfbench/run.sh --workload paper --record   # re-record the reference
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is what every workload runner receives.
type env struct {
	root    string        // repository root
	cli     string        // built commtm-bench binary (paper workload)
	out     string        // scratch directory for sinks, spans and profiles
	seed    uint64        // first seed of the workload's inputs
	seconds time.Duration // how long to keep measuring
	trace   bool          // run the traced mode instead of the timed one
	record  bool          // re-record the reference instead of checking it
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricSpec struct{ name, unit string }

// endToEnd are the timed run's metrics, printed for every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"commtm_speedup", "x"},
}

// harnessExps are the commtm-bench experiments of `-exp all`, each timed by
// the traced paper run as harness.<id>_s.
var harnessExps = []string{
	"ablation-gather", "fig10", "fig12a", "fig12b", "fig13", "fig14",
	"fig16", "fig16a", "fig16b", "fig16c", "fig16d", "fig16e",
	"fig17", "fig18", "fig19", "fig9", "tab1", "tab2",
}

// perLayer are the traced run's metrics, printed for every workload.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		// simulator stack
		{"commtm.run_busy_s", "s"},
		{"sim.run_ns_per_instr", "ns"},
		{"sim.instructions", "count"},
		{"sim.core_cycles", "count"},
		{"core.commits", "count"},
		{"core.aborts", "count"},
		{"core.commit_ratio", "ratio"},
		{"core.wasted_frac", "ratio"},
		{"core.labeled_ops", "count"},
		{"memsys.gets", "count"},
		{"memsys.getx", "count"},
		{"memsys.getu", "count"},
		{"memsys.reductions", "count"},
		{"memsys.gathers", "count"},
		{"memsys.nacks", "count"},
		// commtm lifecycle and the sweep machine pool
		{"commtm.new_busy_s", "s"},
		{"commtm.new_calls", "count"},
		{"commtm.reset_busy_s", "s"},
		{"commtm.reset_calls", "count"},
		{"lifecycle.machines_built", "count"},
		{"lifecycle.machine_reuses", "count"},
		// cache ladder
		{"workloads.setup_busy_s", "s"},
		{"lifecycle.snapshot_hits", "count"},
		{"lifecycle.snapshot_misses", "count"},
		{"lifecycle.snapshot_base_hits", "count"},
		{"lifecycle.input_hits", "count"},
		{"lifecycle.input_misses", "count"},
		{"lifecycle.cow_page_copies", "count"},
		{"go.alloc_bytes", "B"},
		{"go.gc_cycles", "count"},
		// sweep engine
		{"sweep.cells", "count"},
		{"sweep.cell_p50_ms", "ms"},
		{"sweep.cell_tail_ms", "ms"},
		{"sweep.cell_tail_pct", "%"},
		{"sweep.cell_tail_beyond", "count"},
		{"sweep.overhead_s", "s"},
		{"sweep.busy_frac", "ratio"},
		{"sweep.emit_busy_s", "s"},
		// workloads
		{"workloads.mk_busy_s", "s"},
		{"workloads.validate_busy_s", "s"},
		{"commtm.digest_busy_s", "s"},
		// the trace itself
		{"trace.spans", "count"},
		{"trace.overhead_frac", "ratio"},
	}
	// harness + cli
	for _, id := range harnessExps {
		specs = append(specs, metricSpec{"harness." + id + "_s", "s"})
	}
	return specs
}()

// metrics collects one run's values; finish checks it against the specs.
type metrics map[string]float64

// finish builds the metric map of specs from m, failing on any missing or
// non-finite value so a broken run never prints a result.
func (m metrics) finish(specs []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok && strings.HasPrefix(s.name, "lifecycle.") {
			continue // counters read by JSON name are reported only while they exist
		}
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// outcome is what a workload runner hands back.
type outcome struct {
	attempted, failed int
	metrics           metrics
}

var inprocWorkloads = map[string]inprocWorkload{
	seedsWorkload.name: seedsWorkload,
	appsWorkload.name:  appsWorkload,
}

var workloads = map[string]func(env) (outcome, error){
	"paper":   runPaper,
	"seeds":   func(e env) (outcome, error) { return runInProc(e, seedsWorkload) },
	"apps_x4": func(e env) (outcome, error) { return runInProc(e, appsWorkload) },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper, seeds or apps_x4")
		seed    = flag.Uint64("seed", refSeed, "seed of the workload's inputs")
		seconds = flag.Int("seconds", 20, "how long to keep measuring")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root    = flag.String("root", ".", "repository root")
		cli     = flag.String("cli", "", "built commtm-bench binary (paper workload)")
		out     = flag.String("out", "", "scratch directory (default <root>/.bench_build/perfbench/out)")
		record  = flag.Bool("record", false, "re-record the workload's reference (use with the default seed)")
		probe   = flag.Bool("setup-probe", false, "set-up-only mode of the in-process workloads' set-up timing")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail("unknown workload %q (paper, seeds, apps_x4)", *name)
	}
	if *probe {
		w, ok := inprocWorkloads[*name]
		if !ok {
			fail("-setup-probe runs only the in-process workloads")
		}
		e := env{root: *root, out: *out, seed: *seed}
		if err := probeSetup(e, w); err != nil {
			fail("%s set-up probe: %v", *name, err)
		}
	}
	if *record && *seed != refSeed {
		fail("-record needs -seed %d: the reference is kept at the default seed", refSeed)
	}
	e := env{
		root: *root, cli: *cli, out: *out, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1, record: *record,
	}
	if e.out == "" {
		e.out = filepath.Join(e.root, ".bench_build", "perfbench", "out")
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fail("%v", err)
	}
	o, err := run(e)
	if err != nil {
		fail("%s: %v", *name, err)
	}
	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	ms, err := o.metrics.finish(specs)
	if err != nil {
		fail("%s: %v", *name, err)
	}
	printHuman(o.metrics, specs)
	line, err := json.Marshal(report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms})
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

// printHuman lists the metrics one per line ahead of the result line.
func printHuman(m metrics, specs []metricSpec) {
	names := make([]string, 0, len(specs))
	units := map[string]string{}
	for _, s := range specs {
		names = append(names, s.name)
		units[s.name] = s.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, m[n], units[n])
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// keepMeasuring reports whether a timed run that started at start and has
// made passes passes should make another: always until it has one, then
// until seconds are up, and past that, up to twice seconds, while it has
// fewer than minPasses. A slow host thus costs samples, not unbounded time.
func keepMeasuring(start time.Time, seconds time.Duration, passes, minPasses int) bool {
	el := time.Since(start)
	return passes == 0 || el < seconds || (passes < minPasses && el < 2*seconds)
}

// maxRSSMB returns the peak resident set of a process from its rusage
// (Linux reports it in KiB).
func maxRSSMB(kib int64) float64 { return float64(kib) / 1024 }
