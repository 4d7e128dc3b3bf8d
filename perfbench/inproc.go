package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"commtm"
	"commtm/internal/experiments"
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/apps"
)

// inprocWorkload is a workload the benchmark runs in its own process on
// one engine worker, so cell placement, machine reuse and cache hits
// repeat exactly from run to run.
type inprocWorkload struct {
	name  string
	cells func(seed uint64) []sweep.Cell
	// agree: every variant of one configuration must reach the same
	// canonical final state (the conformance matrix's promise).
	agree bool
}

// seedsPerPass is how many consecutive seeds one pass of seeds covers.
const seedsPerPass = 16

// seedsWorkload is the golden-matrix shape at the goldens' scale, over
// consecutive seeds: many short cells, dominated by per-cell fixed costs.
var seedsWorkload = inprocWorkload{name: "seeds", cells: seedsCells, agree: true}

func seedsCells(seed uint64) []sweep.Cell {
	o := harness.DefaultOptions()
	o.Scale = 0.25
	seeds := make([]uint64, seedsPerPass)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	conf := experiments.ConformanceMatrix(o)
	conf.Seeds = seeds
	geo := experiments.GeometryMatrix(o)
	geo.Seeds = seeds
	cells := conf.Cells()
	for _, c := range geo.Cells() {
		c.Index = len(cells)
		cells = append(cells, c)
	}
	return cells
}

// appsWorkload is the five fig16 applications with inputs x4: few long
// cells whose working sets exceed the simulated private caches.
var appsWorkload = inprocWorkload{name: "apps_x4", cells: appsCells}

// appsCells mirrors the fig16 application shapes of commtm-bench at
// -scale 4 (see internal/experiments/apps.go).
func appsCells(seed uint64) []sweep.Cell {
	const scale = 4
	ops := func(n int) int { return n * scale }
	spec := func(name string, mk func() sweep.Workload) sweep.WorkloadSpec {
		return sweep.WorkloadSpec{Name: name, Mk: mk}
	}
	side := 24 + 24*scale
	tasks := ops(8192)
	return sweep.Matrix{
		Workloads: []sweep.WorkloadSpec{
			spec(apps.BoruvkaName, func() sweep.Workload { return apps.NewBoruvka(side, side, 0.7, seed) }),
			spec(apps.KMeansName, func() sweep.Workload { return apps.NewKMeans(ops(4096), 8, 12, 3, seed) }),
			spec(apps.SSCA2Name, func() sweep.Workload { return apps.NewSSCA2(14, ops(24576), seed) }),
			spec(apps.GenomeName, func() sweep.Workload { return apps.NewGenome(512, 32, ops(32768), seed) }),
			spec(apps.VacationName, func() sweep.Workload { return apps.NewVacation(1024, 4*tasks, tasks, 4, seed) }),
		},
		Variants: []sweep.Variant{harness.VarBaseline, harness.VarCommTM},
		Threads:  []int{8, 32, 128},
		Seeds:    []uint64{seed},
	}.Cells()
}

// pass is one engine run over a workload's cells.
type pass struct {
	rows      []sweep.Result
	ref       *reference
	wall      time.Duration // first cell's start to the end of the run
	emitBusy  time.Duration
	lifecycle map[string]float64 // engine lifecycle counters, traced passes only
}

// timedSink times the Emit calls of the sink it wraps.
type timedSink struct {
	s    sweep.Sink
	busy time.Duration
}

func (t *timedSink) Emit(r sweep.Result) error {
	t0 := time.Now()
	err := t.s.Emit(r)
	t.busy += time.Since(t0)
	return err
}

func (t *timedSink) Close() error { return t.s.Close() }

// prepared is a pass's set-up: the reference to check against, the cells,
// and the open sink file.
type prepared struct {
	ref   *reference
	cells []sweep.Cell
	file  *os.File
}

// prepare does a pass's set-up: read the reference (at the default seed),
// build the cells, open the sink file.
func prepare(e env, w inprocWorkload) (prepared, error) {
	var p prepared
	if e.seed == refSeed && !e.record {
		ref, err := loadReference(e.root, w.name)
		if err != nil {
			return p, err
		}
		if ref == nil {
			return p, fmt.Errorf("no reference recorded for %s (run with -record)", w.name)
		}
		p.ref = ref
	}
	p.cells = w.cells(e.seed)
	f, err := os.Create(filepath.Join(e.out, w.name+".jsonl"))
	p.file = f
	return p, err
}

// setupProbe launches this program n times in set-up-only mode and returns
// each launch's time from process start to its first cell's start: runtime
// and package initialisation, prepare, and the engine's start-up. A fresh
// process per sample is what a user pays, and several samples give a
// steadier median than the run's own single start.
func setupProbe(e env, w inprocWorkload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(e.seed),
			"-root", e.root, "-out", e.out, "-setup-probe")
		cmd.Stderr = os.Stderr
		launch := time.Now()
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", b, err)
		}
		out = append(out, time.Unix(0, ns).Sub(launch).Seconds())
	}
	return out, nil
}

// probeSetup is the set-up-only mode: it prepares a pass and starts the
// engine, prints the wall-clock time (Unix ns) at which the first cell
// starts, and exits there.
func probeSetup(e env, w inprocWorkload) error {
	prep, err := prepare(e, w)
	if err != nil {
		return err
	}
	defer prep.file.Close()
	for i := range prep.cells {
		prep.cells[i].Mk = func() sweep.Workload {
			fmt.Println(time.Now().UnixNano())
			os.Exit(0)
			return nil
		}
	}
	eng := &sweep.Engine{Workers: 1, Sinks: []sweep.Sink{sweep.NewJSONL(prep.file)}}
	if _, err := eng.Run(prep.cells); err != nil {
		return err
	}
	return fmt.Errorf("no cell started")
}

// enginePass runs every cell of w through sweep.Engine{Workers: 1} with a
// JSONL sink.
func enginePass(e env, w inprocWorkload, lifecycle bool) (pass, error) {
	prep, err := prepare(e, w)
	if err != nil {
		return pass{}, err
	}
	defer prep.file.Close()
	p := pass{ref: prep.ref}
	cells := prep.cells
	var first time.Time
	for i := range cells {
		mk := cells[i].Mk
		cells[i].Mk = func() sweep.Workload {
			if first.IsZero() {
				first = time.Now()
			}
			return mk()
		}
	}
	sink := &timedSink{s: sweep.NewJSONL(prep.file)}
	eng := &sweep.Engine{Workers: 1, Sinks: []sweep.Sink{sink}}
	var lc reflect.Value
	if lifecycle {
		lc = attachLifecycle(eng)
	}
	rows, err := eng.Run(cells)
	end := time.Now()
	if err != nil {
		return p, fmt.Errorf("sink: %w", err)
	}
	if err := prep.file.Close(); err != nil {
		return p, err
	}
	p.rows, p.wall, p.emitBusy = rows, end.Sub(first), sink.busy
	if lc.IsValid() {
		p.lifecycle, err = numericFields(lc.Interface())
	}
	return p, err
}

// attachLifecycle points the engine's lifecycle-counter field at a fresh
// value and returns it, or returns the zero Value when the engine has no
// such field. Going through reflection (and reading the counters by JSON
// name) keeps the benchmark compiling when the field or any counter in it
// is removed; absent counters are simply not reported.
func attachLifecycle(eng *sweep.Engine) reflect.Value {
	f := reflect.ValueOf(eng).Elem().FieldByName("Metrics")
	if !f.IsValid() || !f.CanSet() || f.Kind() != reflect.Pointer || f.Type().Elem().Kind() != reflect.Struct {
		return reflect.Value{}
	}
	v := reflect.New(f.Type().Elem())
	f.Set(v)
	return v
}

// numericFields flattens the top-level numeric JSON fields of v.
func numericFields(v any) (map[string]float64, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, x := range raw {
		if f, ok := x.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// failures counts the failed cells of one pass: cells that erred or
// disagree with the reference (at the default seed), all variants of a
// configuration whose final states disagree where w promises agreement,
// and cells whose outcome differs from the same cell of the first pass.
func failures(w inprocWorkload, p pass, first []sweep.Result) int {
	keyOf := func(i int) string { return p.rows[i].Key() }
	bad, missing := verdicts(p.rows, keyOf, p.ref)
	for i, r := range p.rows {
		if first != nil && (i >= len(first) || fingerprint(first[i]) != fingerprint(r)) {
			bad[i] = true
		}
	}
	if w.agree {
		for _, g := range disagreeing(p.rows) {
			bad[g] = true
		}
	}
	n := missing
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// disagreeing returns the indexes of the cells in configuration groups
// (all variants of one workload, threads, seed and geometry) whose final
// state digests differ.
func disagreeing(rows []sweep.Result) []int {
	type group struct {
		workload, geometry string
		threads            int
		seed               uint64
	}
	members := map[group][]int{}
	digests := map[group]map[string]bool{}
	for i, r := range rows {
		g := group{r.Workload, r.Geometry.Label, r.Threads, r.Seed}
		members[g] = append(members[g], i)
		if digests[g] == nil {
			digests[g] = map[string]bool{}
		}
		digests[g][r.Digest] = true
	}
	var out []int
	for g, ds := range digests {
		if len(ds) > 1 {
			out = append(out, members[g]...)
		}
	}
	return out
}

// minInprocPasses is how many passes a timed in-process run aims for:
// apps_x4's pass takes about 12 s, and each cell's minimum should come from
// more than two samples.
const minInprocPasses = 3

// runInProc is the timed mode: engine passes over the workload while
// keepMeasuring says so, reporting per-cell minima across passes.
func runInProc(e env, w inprocWorkload) (outcome, error) {
	if e.trace {
		return traceInProc(e, w)
	}
	setups, err := setupProbe(e, w, setupProbes)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{metrics: metrics{}}
	var rows []sweep.Result // the first pass's
	var fastest, walls []float64
	between := math.Inf(1)
	start := time.Now()
	for keepMeasuring(start, e.seconds, len(walls), minInprocPasses) {
		// Each pass starts from a collected heap, so neither its time nor
		// the peak resident set depends on how many passes came before.
		debug.FreeOSMemory()
		p, err := enginePass(e, w, false)
		if err != nil {
			return outcome{}, err
		}
		if rows == nil {
			rows = p.rows
			fastest = make([]float64, len(rows))
			for i := range fastest {
				fastest[i] = math.Inf(1)
			}
		}
		o.attempted += len(p.rows)
		o.failed += failures(w, p, rows)
		walls = append(walls, p.wall.Seconds())

		// wall_s is the pass as it runs undisturbed: each cell at its
		// fastest across the run's passes, plus the shortest time the
		// engine spent between cells. Interference from the rest of the
		// host only ever adds time, so minima are the steadiest estimate
		// of the program's own cost.
		gap := float64(p.wall.Nanoseconds())
		for i, r := range p.rows {
			if i < len(fastest) {
				fastest[i] = min(fastest[i], float64(r.WallNS))
			}
			gap -= float64(r.WallNS)
		}
		between = min(between, gap)
	}
	keyOf := func(i int) string { return rows[i].Key() }
	if e.record {
		if err := writeReference(e.root, w.name, rows, keyOf); err != nil {
			return outcome{}, err
		}
		fmt.Printf("recorded %d cells in %s\n", len(rows), refPath(e.root, w.name))
	}
	wallNS := between
	for _, f := range fastest {
		wallNS += f
	}
	wall := wallNS / 1e9
	speedup, pairs := commtmSpeedup(rows, nil)
	var instr uint64
	for _, r := range rows {
		instr += r.Stats.Instructions
	}
	o.metrics["wall_s"] = wall
	o.metrics["sim_minstr_per_s"] = float64(instr) / wall / 1e6
	o.metrics["setup_s"] = median(setups)
	o.metrics["max_rss_mb"] = selfMaxRSSMB()
	o.metrics["commtm_speedup"] = speedup
	fmt.Printf("%s: seed %d, %d passes of %d cells, %d Baseline/CommTM pairs\n", w.name, e.seed, len(walls), len(rows), pairs)
	fmt.Printf("pass walls (s):")
	for _, s := range walls {
		fmt.Printf(" %.3f", s)
	}
	fmt.Printf("\nset-ups (s):")
	for _, s := range setups {
		fmt.Printf(" %.4f", s)
	}
	fmt.Println()
	fmt.Printf("sim_digest=%s\n", simDigest(rows, keyOf))
	return o, nil
}

// traceInProc is the traced mode. One engine pass gives the sweep and
// lifecycle counters; then the benchmark drives the same cells through its
// own loop of public calls twice, without and with spans, and reports the
// span-derived busy times and the tracing overhead.
func traceInProc(e env, w inprocWorkload) (outcome, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := enginePass(e, w, true)
	if err != nil {
		return outcome{}, err
	}
	runtime.ReadMemStats(&after)
	o := outcome{metrics: metrics{}, attempted: len(p.rows), failed: failures(w, p, nil)}
	keyOf := func(i int) string { return p.rows[i].Key() }

	// Untraced and traced loops alternate twice and the faster of each
	// counts, so warm-up does not pass for tracing overhead; the last traced
	// loop's spans are kept.
	var tr *tracer
	untraced, tracedWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 2; round++ {
		for _, traced := range []bool{false, true} {
			var t *tracer
			if traced {
				t = newTracer()
			}
			rows, wall, err := ownLoop(e, w, t)
			if err != nil {
				return outcome{}, err
			}
			o.attempted += len(rows)
			o.failed += failures(w, pass{rows: rows}, p.rows)
			if traced {
				tr, tracedWall = t, min(tracedWall, wall)
			} else {
				untraced = min(untraced, wall)
			}
		}
	}
	spanFile := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, e.seed))
	if err := tr.write(spanFile); err != nil {
		return outcome{}, err
	}

	m := o.metrics
	simCounts(m, p.rows)
	cellStats(m, p.rows, p.wall, 1)
	m["sweep.emit_busy_s"] = p.emitBusy.Seconds()
	for k, v := range p.lifecycle {
		m["lifecycle."+k] = v
	}
	m["go.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)

	lts := layerTimes(tr.spans)
	m["commtm.run_busy_s"] = busy(lts, "run").Seconds()
	m["commtm.new_busy_s"] = busy(lts, "new").Seconds()
	m["commtm.new_calls"] = float64(calls(lts, "new"))
	m["commtm.reset_busy_s"] = busy(lts, "reset").Seconds()
	m["commtm.reset_calls"] = float64(calls(lts, "reset"))
	m["commtm.digest_busy_s"] = busy(lts, "digest").Seconds()
	m["workloads.setup_busy_s"] = busy(lts, "setup").Seconds()
	m["workloads.mk_busy_s"] = busy(lts, "mk").Seconds()
	m["workloads.validate_busy_s"] = busy(lts, "validate").Seconds()
	m["sim.run_ns_per_instr"] = perInstr(busy(lts, "run"), m["sim.instructions"])
	for _, id := range harnessExps {
		m["harness."+id+"_s"] = 0 // the in-process workloads run no harness experiment
	}
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.overhead_frac"] = tracedWall.Seconds()/untraced.Seconds() - 1

	fmt.Printf("%s traced: seed %d, %d cells, spans in %s\n", w.name, e.seed, len(p.rows), spanFile)
	printLayers(lts)
	fmt.Printf("tracing overhead: own loop %.3fs traced vs %.3fs untraced (engine pass %.3fs)\n",
		tracedWall.Seconds(), untraced.Seconds(), p.wall.Seconds())
	fmt.Printf("sim_digest=%s\n", simDigest(p.rows, keyOf))
	return o, nil
}

// ownLoop runs w's cells one at a time through the public machine
// lifecycle — one machine per configuration, built with commtm.New and
// ResetSeed between cells — recording a span around each call when tr is
// non-nil. Results go to a JSONL sink like the engine's.
func ownLoop(e env, w inprocWorkload, tr *tracer) ([]sweep.Result, time.Duration, error) {
	cells := w.cells(e.seed)
	f, err := os.Create(filepath.Join(e.out, w.name+"-loop.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sink := sweep.NewJSONL(f)
	machines := map[commtm.Config]*commtm.Machine{}
	defer func() {
		for _, m := range machines {
			m.Close()
		}
	}()
	rows := make([]sweep.Result, len(cells))
	start := time.Now()
	for i, c := range cells {
		cs := tr.begin("cell", -1)
		rows[i] = tracedCell(c, machines, tr, cs)
		sp := tr.begin("emit", cs)
		err := sink.Emit(rows[i])
		tr.end(sp)
		tr.end(cs)
		if err != nil {
			return nil, 0, fmt.Errorf("sink: %w", err)
		}
	}
	wall := time.Since(start)
	return rows, wall, f.Close()
}

// tracedCell runs one cell on the configuration's machine with a span
// (child of parent) around each public call. A failed cell's machine is
// closed and dropped.
func tracedCell(c sweep.Cell, machines map[commtm.Config]*commtm.Machine, tr *tracer, parent int) (res sweep.Result) {
	res = sweep.Result{Cell: c}
	key := c.Config()
	key.Seed = 0
	start := time.Now()
	defer func() {
		res.WallNS = time.Since(start).Nanoseconds()
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		if m := machines[key]; res.Err != "" && m != nil {
			m.Close()
			delete(machines, key)
		}
	}()
	sp := tr.begin("mk", parent)
	wl := c.Mk()
	tr.end(sp)
	m := machines[key]
	if m == nil {
		sp = tr.begin("new", parent)
		m = commtm.New(c.Config())
		tr.end(sp)
		machines[key] = m
	} else {
		sp = tr.begin("reset", parent)
		m.ResetSeed(c.Seed)
		tr.end(sp)
	}
	sp = tr.begin("setup", parent)
	wl.Setup(m)
	tr.end(sp)
	sp = tr.begin("run", parent)
	m.Run(wl.Body)
	tr.end(sp)
	res.Stats = m.Stats()
	sp = tr.begin("validate", parent)
	err := wl.Validate(m)
	tr.end(sp)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	sp = tr.begin("digest", parent)
	var d uint64
	if dg, ok := wl.(sweep.Digester); ok {
		d = dg.DigestState(m)
	} else {
		d = m.MemDigest()
	}
	tr.end(sp)
	res.Digest = fmt.Sprintf("%016x", d)
	return res
}

// simCounts sums the simulated statistics of rows into m.
func simCounts(m metrics, rows []sweep.Result) {
	var s commtm.Stats
	for _, r := range rows {
		st := r.Stats
		s.Instructions += st.Instructions
		s.TotalCoreCycles += st.TotalCoreCycles
		s.WastedCycles += st.WastedCycles
		s.Commits += st.Commits
		s.Aborts += st.Aborts
		s.LabeledOps += st.LabeledOps
		s.GETS += st.GETS
		s.GETX += st.GETX
		s.GETU += st.GETU
		s.Reductions += st.Reductions
		s.Gathers += st.Gathers
		s.NACKs += st.NACKs
	}
	m["sim.instructions"] = float64(s.Instructions)
	m["sim.core_cycles"] = float64(s.TotalCoreCycles)
	m["core.commits"] = float64(s.Commits)
	m["core.aborts"] = float64(s.Aborts)
	m["core.commit_ratio"] = ratio(s.Commits, s.Commits+s.Aborts)
	m["core.wasted_frac"] = ratio(s.WastedCycles, s.TotalCoreCycles)
	m["core.labeled_ops"] = float64(s.LabeledOps)
	m["memsys.gets"] = float64(s.GETS)
	m["memsys.getx"] = float64(s.GETX)
	m["memsys.getu"] = float64(s.GETU)
	m["memsys.reductions"] = float64(s.Reductions)
	m["memsys.gathers"] = float64(s.Gathers)
	m["memsys.nacks"] = float64(s.NACKs)
}

// cellStats reports the sweep engine's per-cell timing over rows run by
// workers workers in wall.
func cellStats(m metrics, rows []sweep.Result, wall time.Duration, workers int) {
	ms := make([]float64, len(rows))
	var cellNS float64
	for i, r := range rows {
		ms[i] = float64(r.WallNS) / 1e6
		cellNS += float64(r.WallNS)
	}
	pct, v, beyond := tail(ms)
	m["sweep.cells"] = float64(len(rows))
	m["sweep.cell_p50_ms"] = median(ms)
	m["sweep.cell_tail_ms"] = v
	m["sweep.cell_tail_pct"] = pct
	m["sweep.cell_tail_beyond"] = float64(beyond)
	m["sweep.overhead_s"] = wall.Seconds() - cellNS/1e9/float64(workers)
	m["sweep.busy_frac"] = cellNS / 1e9 / float64(workers) / wall.Seconds()
	fmt.Printf("cell tail: p%g = %.3f ms with %d of %d cells beyond it\n", pct, v, beyond, len(rows))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perInstr(d time.Duration, instr float64) float64 {
	if instr == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / instr
}

// printLayers prints the per-span-name busy and self times.
func printLayers(lts []layerTime) {
	fmt.Printf("%-22s %8s %12s %12s\n", "span", "count", "busy_s", "self_s")
	for _, lt := range lts {
		fmt.Printf("%-22s %8d %12.6f %12.6f\n", lt.Name, lt.Count, lt.Busy.Seconds(), lt.Self.Seconds())
	}
}

// selfMaxRSSMB is this process's peak resident set.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxRSSMB(ru.Maxrss)
}
