package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"commtm/internal/sweep"
)

// paperArgs is the ROADMAP's headline command at the goldens' scale,
// minus its -json sink.
func paperArgs(seed uint64) []string {
	return []string{"-exp", "all", "-scale", "0.25", "-parallel", "0", "-seed", fmt.Sprint(seed)}
}

// paperSeeds is how many invocations, at consecutive seeds, one pass of
// the paper workload makes. Runs at neighbouring seeds then share half of
// their work, which damps seed-to-seed swings in simulated work (vacation's
// abort storms), while a pass stays short enough for two in a run.
const paperSeeds = 2

// minPaperPasses is how many passes a timed paper run aims for: a pass is
// about as long as a run, so without it the pass count (and with it the
// per-invocation minima) would flip between one and two with the host's
// speed.
const minPaperPasses = 2

// setupProbes is how many set-ups a timed run measures, each in a fresh
// process: in-process workloads launch this program in its set-up-only
// mode; paper launches the CLI to run only tab1, the one experiment that
// simulates nothing, beside the pass's own invocations.
const setupProbes = 21

// cliTimeout bounds one CLI invocation.
const cliTimeout = 150 * time.Second

// expRecord is one {"host_metrics": ...} line of the CLI's JSONL stream.
type expRecord struct {
	id     string
	at     time.Time // arrival
	wallMS float64
	// numeric fields by JSON name; nested objects are flattened with a
	// dot, as in "lifecycle.machines_built".
	fields map[string]float64
}

// stream is what the CLI's JSONL output carried, with arrival times.
type stream struct {
	rows   []sweep.Result
	rowAt  []time.Time
	rowExp []int // index into exps of the experiment each row belongs to, -1 if none followed
	exps   []expRecord
}

// readJSONL reads a commtm-bench JSONL stream. Result rows and
// host-metrics lines are recognised by their keys; any other line, and any
// unknown field, is skipped. Each line is stamped by now() on arrival.
func readJSONL(r io.Reader, now func() time.Time) (stream, error) {
	var s stream
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	pending := 0 // rows not yet assigned to an experiment
	for sc.Scan() {
		at := now()
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if hm, ok := probe["host_metrics"]; ok {
			rec, err := parseHostMetrics(hm)
			if err != nil {
				continue
			}
			rec.at = at
			s.exps = append(s.exps, rec)
			for ; pending < len(s.rows); pending++ {
				s.rowExp[pending] = len(s.exps) - 1
			}
			continue
		}
		_, hasWorkload := probe["workload"]
		_, hasStats := probe["stats"]
		if !hasWorkload || !hasStats {
			continue
		}
		var row sweep.Result
		if json.Unmarshal(line, &row) != nil {
			continue
		}
		s.rows = append(s.rows, row)
		s.rowAt = append(s.rowAt, at)
		s.rowExp = append(s.rowExp, -1)
	}
	return s, sc.Err()
}

func parseHostMetrics(raw json.RawMessage) (expRecord, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return expRecord{}, err
	}
	rec := expRecord{fields: map[string]float64{}}
	rec.id, _ = m["exp"].(string)
	for k, v := range m {
		switch x := v.(type) {
		case float64:
			rec.fields[k] = x
		case map[string]any:
			for k2, v2 := range x {
				if f, ok := v2.(float64); ok {
					rec.fields[k+"."+k2] = f
				}
			}
		}
	}
	rec.wallMS = rec.fields["wall_ms"]
	return rec, nil
}

// cliRun is one commtm-bench invocation observed from outside.
type cliRun struct {
	stream
	launch, exit time.Time
	maxRSSKB     int64
	err          error // non-nil when the process failed
}

// expStart is when the first experiment started: its host-metrics line's
// arrival less the wall time it reports.
func (r cliRun) expStart() time.Time {
	if len(r.exps) == 0 {
		return r.exit
	}
	return r.exps[0].at.Add(-time.Duration(r.exps[0].wallMS * float64(time.Millisecond)))
}

// runCLI launches commtm-bench with args plus a JSONL sink on a pipe, and
// reads the stream as it arrives.
func runCLI(e env, args ...string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	pr, pw, err := os.Pipe()
	if err != nil {
		return cliRun{}, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, e.cli, append(args, "-json", "/dev/fd/3")...)
	cmd.ExtraFiles = []*os.File{pw}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	r := cliRun{launch: time.Now()}
	if err := cmd.Start(); err != nil {
		pw.Close()
		return cliRun{}, err
	}
	pw.Close() // the child holds the write end now
	r.stream, err = readJSONL(pr, time.Now)
	werr := cmd.Wait()
	r.exit = time.Now()
	if err != nil {
		return cliRun{}, fmt.Errorf("reading commtm-bench output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	if werr != nil {
		r.err = fmt.Errorf("commtm-bench %v: %v: %s", args, werr, bytes.TrimSpace(stderr.Bytes()))
		fmt.Fprintln(os.Stderr, r.err)
	}
	return r, nil
}

// paperExp is the id of the experiment row i belongs to ("" if none).
func paperExp(s stream, i int) string {
	if j := s.rowExp[i]; j >= 0 {
		return s.exps[j].id
	}
	return ""
}

// paperKey names a paper row: experiment id plus cell key, because two
// experiments may run the same cell key with different inputs.
func paperKey(s stream, i int) string { return paperExp(s, i) + "|" + s.rows[i].Key() }

// paperPass is paperSeeds invocations at consecutive seeds, with their rows
// flattened in order.
type paperPass struct {
	runs   []cliRun
	rows   []sweep.Result
	keys   []string // experiment id plus cell key, unique across the pass
	groups []string // experiment id and seed: Baseline/CommTM pairs match within one
	errs   int      // invocations that failed
}

// runPaperPass makes the pass's invocations; extra (nil = none) gives
// further arguments for the invocation at a seed.
func runPaperPass(e env, extra func(seed uint64) []string) (paperPass, error) {
	var p paperPass
	for k := uint64(0); k < paperSeeds; k++ {
		args := paperArgs(e.seed + k)
		if extra != nil {
			args = append(args, extra(e.seed+k)...)
		}
		r, err := runCLI(e, args...)
		if err != nil {
			return p, err
		}
		p.runs = append(p.runs, r)
		for i := range r.rows {
			p.rows = append(p.rows, r.rows[i])
			p.keys = append(p.keys, paperKey(r.stream, i))
			p.groups = append(p.groups, fmt.Sprintf("%s|%d", paperExp(r.stream, i), e.seed+k))
		}
		if r.err != nil {
			p.errs++
		}
	}
	return p, nil
}

// wall sums the invocations' times from their first experiment's start to
// their exit.
func (p paperPass) wall() time.Duration {
	var d time.Duration
	for _, r := range p.runs {
		d += r.exit.Sub(r.expStart())
	}
	return d
}

// failures counts the failed cells of a pass: rows that erred or disagree
// with the reference, rows that differ from the first pass's, and each
// failed invocation.
func (p paperPass) failures(ref *reference, first *paperPass) int {
	bad, missing := verdicts(p.rows, func(i int) string { return p.keys[i] }, ref)
	if first != nil {
		for i, row := range p.rows {
			if i >= len(first.rows) || fingerprint(first.rows[i]) != fingerprint(row) {
				bad[i] = true
			}
		}
	}
	n := missing + p.errs
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

func (p paperPass) attempted() int { return len(p.rows) + p.errs }

func (p paperPass) digest() string { return simDigest(p.rows, func(i int) string { return p.keys[i] }) }

func runPaper(e env) (outcome, error) {
	if e.cli == "" {
		return outcome{}, fmt.Errorf("-cli is required for the paper workload")
	}
	var ref *reference
	if e.seed == refSeed && !e.record {
		var err error
		if ref, err = loadReference(e.root, "paper"); err != nil {
			return outcome{}, err
		}
		if ref == nil {
			return outcome{}, fmt.Errorf("no reference recorded for paper (run with -record)")
		}
	}
	if e.trace {
		return tracePaper(e, ref)
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		r, err := runCLI(e, "-exp", "tab1", "-scale", "0.25", "-parallel", "0", "-seed", fmt.Sprint(e.seed))
		if err != nil {
			return outcome{}, err
		}
		if r.err != nil || len(r.exps) == 0 {
			return outcome{}, fmt.Errorf("set-up probe: commtm-bench reported no experiment: %v", r.err)
		}
		setups = append(setups, r.expStart().Sub(r.launch).Seconds())
	}
	var passes []paperPass
	start := time.Now()
	for keepMeasuring(start, e.seconds, len(passes), minPaperPasses) {
		p, err := runPaperPass(e, nil)
		if err != nil {
			return outcome{}, err
		}
		passes = append(passes, p)
	}
	first := passes[0]
	if e.record {
		if first.errs > 0 {
			return outcome{}, fmt.Errorf("commtm-bench failed; not recording")
		}
		if err := writeReference(e.root, "paper", first.rows, func(i int) string { return first.keys[i] }); err != nil {
			return outcome{}, err
		}
		fmt.Printf("recorded %d cells in %s\n", len(first.rows), refPath(e.root, "paper"))
	}
	o := outcome{metrics: metrics{}}
	var walls, rss []float64
	// wall_s takes each seed's invocation at its fastest across the passes,
	// as the in-process workloads take each cell: interference from the
	// rest of the host only ever adds time.
	fastest := make([]float64, paperSeeds)
	for k := range fastest {
		fastest[k] = math.Inf(1)
	}
	for i, p := range passes {
		cmp := &first
		if i == 0 {
			cmp = nil
		}
		o.attempted += p.attempted()
		o.failed += p.failures(ref, cmp)
		walls = append(walls, p.wall().Seconds())
		for k, r := range p.runs {
			setups = append(setups, r.expStart().Sub(r.launch).Seconds())
			rss = append(rss, maxRSSMB(r.maxRSSKB))
			fastest[k] = min(fastest[k], r.exit.Sub(r.expStart()).Seconds())
		}
	}
	var instr uint64
	for _, row := range first.rows {
		instr += row.Stats.Instructions
	}
	var wall float64
	for _, f := range fastest {
		wall += f
	}
	speedup, pairs := commtmSpeedup(first.rows, func(i int) string { return first.groups[i] })
	o.metrics["wall_s"] = wall
	o.metrics["sim_minstr_per_s"] = float64(instr) / wall / 1e6
	o.metrics["setup_s"] = median(setups)
	o.metrics["max_rss_mb"] = median(rss)
	o.metrics["commtm_speedup"] = speedup
	fmt.Printf("paper: seeds %d-%d, %d passes of %d rows, %d set-up samples, %d Baseline/CommTM pairs\n",
		e.seed, e.seed+paperSeeds-1, len(passes), len(first.rows), len(setups), pairs)
	fmt.Printf("pass walls (s):")
	for _, w := range walls {
		fmt.Printf(" %.3f", w)
	}
	fmt.Println()
	fmt.Printf("sim_digest=%s\n", first.digest())
	return o, nil
}

// tracePaper is the paper's traced mode: one plain pass, then one with the
// CLI's CPU profiler on. Spans come from the streamed rows (cells) and
// host-metrics lines (experiments); phase busy times come from the
// profiles; the difference in wall time is the tracing overhead.
func tracePaper(e env, ref *reference) (outcome, error) {
	plain, err := runPaperPass(e, nil)
	if err != nil {
		return outcome{}, err
	}
	var profs []string
	traced, err := runPaperPass(e, func(seed uint64) []string {
		profs = append(profs, filepath.Join(e.out, fmt.Sprintf("paper-seed%d.pprof", seed)))
		return []string{"-cpuprofile", profs[len(profs)-1]}
	})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{metrics: metrics{}}
	o.attempted = plain.attempted() + traced.attempted()
	o.failed = plain.failures(ref, nil) + traced.failures(ref, &plain)
	if traced.errs > 0 {
		return o, fmt.Errorf("commtm-bench failed under the profiler")
	}

	// Spans: each experiment runs from the previous host-metrics line (or,
	// for the first, its reported wall time) to its own; each cell ends
	// when its row arrives and started its wall time earlier. Invocations
	// are root spans.
	tr := newTracer()
	tr.t0 = traced.runs[0].launch
	harness := map[string]time.Duration{}
	for _, r := range traced.runs {
		inv := tr.add("invocation", tr.since(r.launch), tr.since(r.exit), -1)
		expSpan := make([]int, len(r.exps))
		prev := r.expStart()
		for i, x := range r.exps {
			expSpan[i] = tr.add("exp:"+x.id, tr.since(prev), tr.since(x.at), inv)
			harness[x.id] += x.at.Sub(prev)
			prev = x.at
		}
		for i, row := range r.rows {
			parent := inv
			if j := r.rowExp[i]; j >= 0 {
				parent = expSpan[j]
			}
			end := tr.since(r.rowAt[i])
			tr.add("cell", end-row.WallNS, end, parent)
		}
	}
	spanFile := filepath.Join(e.out, fmt.Sprintf("spans-paper-seed%d.json", e.seed))
	if err := tr.write(spanFile); err != nil {
		return o, err
	}
	busyT := map[string]time.Duration{}
	for _, prof := range profs {
		b, err := profileBusy(prof, profilePhases)
		if err != nil {
			return o, err
		}
		for k, v := range b {
			busyT[k] += v
		}
	}

	m := o.metrics
	simCounts(m, traced.rows)
	cellStats(m, traced.rows, traced.wall(), runtime.NumCPU())
	sum := map[string]float64{}
	for _, r := range traced.runs {
		for _, x := range r.exps {
			for k, v := range x.fields {
				sum[k] += v
			}
		}
	}
	for k, v := range sum {
		if k2, ok := strings.CutPrefix(k, "lifecycle."); ok {
			m["lifecycle."+k2] = v
		}
	}
	m["go.alloc_bytes"] = sum["host_alloc_bytes"]
	m["go.gc_cycles"] = sum["host_gc_cycles"]
	// The CLI counts pooled machine builds and reuses; cells it runs
	// outside the engine (RunOne) are not counted.
	m["commtm.new_calls"] = sum["lifecycle.machines_built"]
	m["commtm.reset_calls"] = sum["lifecycle.machine_reuses"]
	m["commtm.run_busy_s"] = busyT["run"].Seconds()
	m["commtm.new_busy_s"] = busyT["new"].Seconds()
	m["commtm.reset_busy_s"] = busyT["reset"].Seconds()
	m["commtm.digest_busy_s"] = busyT["digest"].Seconds()
	m["workloads.setup_busy_s"] = busyT["setup"].Seconds()
	m["workloads.mk_busy_s"] = busyT["mk"].Seconds()
	m["workloads.validate_busy_s"] = busyT["validate"].Seconds()
	m["sweep.emit_busy_s"] = busyT["emit"].Seconds()
	m["sim.run_ns_per_instr"] = perInstr(busyT["run"], m["sim.instructions"])
	for _, id := range harnessExps {
		m["harness."+id+"_s"] = harness[id].Seconds()
	}
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.overhead_frac"] = traced.wall().Seconds()/plain.wall().Seconds() - 1

	fmt.Printf("paper traced: seeds %d-%d, %d rows, spans in %s, profiles in %s\n",
		e.seed, e.seed+paperSeeds-1, len(traced.rows), spanFile, e.out)
	printLayers(layerTimes(tr.spans))
	fmt.Printf("tracing overhead: %.3fs profiled vs %.3fs plain\n", traced.wall().Seconds(), plain.wall().Seconds())
	fmt.Printf("sim_digest=%s\n", traced.digest())
	return o, nil
}
