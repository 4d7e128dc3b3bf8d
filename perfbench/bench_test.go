package main

import (
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"commtm"
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/micro"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{5, 50, 3, 2},        // too few samples: median, short beyond count
		{30, 50, 15, 15},     // p90 would leave only 3 beyond
		{100, 90, 90, 10},    // p95 would leave only 5 beyond
		{1152, 99, 1141, 11}, // p99.9 would leave only 1 beyond
		{20000, 99.9, 19980, 20},
	} {
		pct, v, beyond := tail(seq(tc.n))
		if pct != tc.pct || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				tc.n, pct, v, beyond, tc.pct, tc.value, tc.beyond)
		}
		if tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail percentile", tc.n, beyond)
		}
	}
}

func TestKeepMeasuringBoundsRunLength(t *testing.T) {
	const s = 20 * time.Second
	for _, tc := range []struct {
		elapsed           time.Duration
		passes, minPasses int
		want              bool
	}{
		{50 * time.Second, 0, 3, true},  // always one pass
		{10 * time.Second, 5, 3, true},  // time left
		{25 * time.Second, 2, 3, true},  // past the seconds, short of the floor
		{25 * time.Second, 3, 3, false}, // floor reached
		{41 * time.Second, 2, 3, false}, // past twice the seconds
	} {
		got := keepMeasuring(time.Now().Add(-tc.elapsed), s, tc.passes, tc.minPasses)
		if got != tc.want {
			t.Errorf("%v elapsed, %d passes (floor %d): got %v, want %v", tc.elapsed, tc.passes, tc.minPasses, got, tc.want)
		}
	}
}

// badValidate is a real workload whose Validate always fails.
type badValidate struct{ sweep.Workload }

func (badValidate) Validate(*commtm.Machine) error { return errors.New("injected validation failure") }

func counterCell(i int, v sweep.Variant, mk func() sweep.Workload) sweep.Cell {
	return sweep.Cell{Index: i, Workload: micro.CounterName, Variant: v, Threads: 2, Seed: 1, Mk: mk}
}

func TestFailedCellIsCounted(t *testing.T) {
	good := func() sweep.Workload { return micro.NewCounter(64) }
	bad := func() sweep.Workload { return badValidate{micro.NewCounter(64)} }
	cells := []sweep.Cell{
		counterCell(0, harness.VarBaseline, good),
		counterCell(1, harness.VarCommTM, bad),
	}
	rows, err := (&sweep.Engine{Workers: 1}).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := failures(inprocWorkload{name: "test"}, pass{rows: rows}, nil); got != 1 {
		t.Fatalf("failures = %d, want 1 (the injected cell)", got)
	}
	if rows[1].Err == "" || rows[0].Err != "" {
		t.Fatalf("unexpected errors: %q, %q", rows[0].Err, rows[1].Err)
	}
}

func TestDisagreeingVariantsFail(t *testing.T) {
	rows := []sweep.Result{
		{Cell: sweep.Cell{Workload: "w", Variant: harness.VarBaseline, Threads: 8, Seed: 1}, Digest: "aa"},
		{Cell: sweep.Cell{Workload: "w", Variant: harness.VarCommTM, Threads: 8, Seed: 1}, Digest: "bb"},
		{Cell: sweep.Cell{Workload: "w", Variant: harness.VarBaseline, Threads: 8, Seed: 2}, Digest: "cc"},
		{Cell: sweep.Cell{Workload: "w", Variant: harness.VarCommTM, Threads: 8, Seed: 2}, Digest: "cc"},
	}
	w := inprocWorkload{name: "test", agree: true}
	if got := failures(w, pass{rows: rows}, nil); got != 2 {
		t.Fatalf("failures = %d, want 2 (both cells of the disagreeing group)", got)
	}
	w.agree = false
	if got := failures(w, pass{rows: rows}, nil); got != 0 {
		t.Fatalf("failures without the agreement promise = %d, want 0", got)
	}
}

func TestReferenceMismatch(t *testing.T) {
	mk := func() sweep.Workload { return micro.NewCounter(64) }
	rows, err := (&sweep.Engine{Workers: 1}).Run([]sweep.Cell{
		counterCell(0, harness.VarBaseline, mk),
		counterCell(1, harness.VarCommTM, mk),
	})
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(i int) string { return rows[i].Key() }
	ref := &reference{Cells: map[string]string{}}
	for i, r := range rows {
		ref.Cells[keyOf(i)] = fingerprint(r)
	}
	if bad, missing := verdicts(rows, keyOf, ref); bad[0] || bad[1] || missing != 0 {
		t.Fatalf("matching rows flagged: %v, %d missing", bad, missing)
	}

	changed := append([]sweep.Result(nil), rows...)
	changed[1].Stats.Cycles++
	if bad, _ := verdicts(changed, keyOf, ref); bad[0] || !bad[1] {
		t.Fatalf("a changed cycle count was not caught: %v", bad)
	}
	changed = append([]sweep.Result(nil), rows...)
	changed[0].Digest = "0000000000000000"
	if bad, _ := verdicts(changed, keyOf, ref); !bad[0] || bad[1] {
		t.Fatalf("a changed final state was not caught: %v", bad)
	}
	ref.Cells["counter/CommTM/64t/seed=1"] = "x"
	if _, missing := verdicts(rows, keyOf, ref); missing != 1 {
		t.Fatalf("missing = %d, want 1 (the reference cell never run)", missing)
	}
	if a, b := simDigest(rows, keyOf), simDigest(changed, keyOf); a == b {
		t.Fatal("sim_digest did not change with a cell's outcome")
	}
}

func TestReadJSONLSkipsHostMetricsAndUnknown(t *testing.T) {
	row := func(label string, cycles int) string {
		return `{"index":0,"workload":"kmeans","variant":{"label":"` + label + `"},"threads":8,"seed":1,` +
			`"stats":{"Cycles":` + strconv.Itoa(cycles) + `,"FutureCounter":7},"digest":"ab","wall_ns":5,"new_field":{"x":1}}`
	}
	in := strings.Join([]string{
		row("Baseline", 100),
		`not json at all`,
		`{"something_else":{"a":1}}`,
		`{"host_metrics":{"exp":"fig16b","wall_ms":12,"host_alloc_bytes":1000,"lifecycle":{"machines_built":3,"gone_counter":null},"note":"text"}}`,
		`{"workload":"no-stats"}`,
		row("CommTM", 50),
		``,
	}, "\n")
	clock := time.Unix(0, 0)
	s, err := readJSONL(strings.NewReader(in), func() time.Time { clock = clock.Add(time.Millisecond); return clock })
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rows) != 2 || len(s.exps) != 1 {
		t.Fatalf("got %d rows and %d host-metrics lines, want 2 and 1", len(s.rows), len(s.exps))
	}
	if s.rows[0].Stats.Cycles != 100 || s.rows[1].Variant.Label != "CommTM" {
		t.Fatalf("rows decoded wrong: %+v", s.rows)
	}
	if s.rowExp[0] != 0 || s.rowExp[1] != -1 {
		t.Fatalf("row experiments = %v, want [0 -1]", s.rowExp)
	}
	x := s.exps[0]
	if x.id != "fig16b" || x.wallMS != 12 || x.fields["host_alloc_bytes"] != 1000 || x.fields["lifecycle.machines_built"] != 3 {
		t.Fatalf("host metrics decoded wrong: %+v", x)
	}
	if _, ok := x.fields["lifecycle.gone_counter"]; ok {
		t.Fatal("a non-numeric field was reported")
	}
	if k := paperKey(s, 0); k != "fig16b|kmeans/Baseline/8t/seed=1" {
		t.Fatalf("paper key = %q", k)
	}
}

func TestSpeedupPairs(t *testing.T) {
	res := func(w, label string, noGather bool, th int, cycles uint64) sweep.Result {
		return sweep.Result{
			Cell:  sweep.Cell{Workload: w, Variant: sweep.Variant{Label: label, DisableGather: noGather}, Threads: th, Seed: 1},
			Stats: commtm.Stats{Cycles: cycles},
		}
	}
	rows := []sweep.Result{
		res("a", "Baseline", false, 8, 400),
		res("a", "CommTM", false, 8, 100), // 4x
		res("a", "CommTM w/o gather", true, 8, 50),
		res("b", "Baseline", false, 8, 100),
		res("b", "CommTM", false, 8, 100),    // 1x
		res("c", "Baseline", false, 32, 100), // unmatched
		res("a", "CommTM", false, 32, 10),    // unmatched
	}
	got, n := commtmSpeedup(rows, nil)
	if n != 2 || math.Abs(got-2) > 1e-12 {
		t.Fatalf("speedup = %g over %d pairs, want 2 over 2", got, n)
	}
	// The same keys in two groups pair only within their group.
	group := func(i int) string {
		if i < 3 {
			return "x"
		}
		return "y"
	}
	rows[3] = res("a", "Baseline", false, 8, 100)
	if _, n := commtmSpeedup(rows, group); n != 1 {
		t.Fatalf("pairs across groups = %d, want 1", n)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "run", Start: 10, End: 50, Parent: 0},
		{Name: "run", Start: 40, End: 70, Parent: 0},
		{Name: "emit", Start: 90, End: 120, Parent: 0}, // clipped at the parent's end
	}
	lts := layerTimes(spans)
	for _, lt := range lts {
		switch lt.Name {
		case "cell":
			if lt.Self != 30 || lt.Busy != 100 {
				t.Errorf("cell self/busy = %v/%v, want 30/100", lt.Self, lt.Busy)
			}
		case "run":
			if lt.Count != 2 || lt.Busy != 70 {
				t.Errorf("run count/busy = %d/%v, want 2/70", lt.Count, lt.Busy)
			}
		}
	}
}

//go:noinline
func profiledSpin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestProfileBusyAttributesSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	profiledSpin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := profileBusy(path, map[string]func(string) bool{
		"spin":  func(fn string) bool { return strings.HasSuffix(fn, ".profiledSpin") },
		"never": func(fn string) bool { return fn == "no.such.Function" },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["spin"] < 100*time.Millisecond || got["spin"] > time.Second {
		t.Errorf("spin busy = %v, want about 500ms", got["spin"])
	}
	if got["never"] != 0 {
		t.Errorf("unmatched phase busy = %v, want 0", got["never"])
	}
}

// forbidden are the packages ROADMAP items 1-2 may delete: the benchmark
// must keep compiling without them.
var forbidden = []string{
	"commtm/internal/arena",
	"commtm/internal/workloads/inputs",
	"commtm/internal/workloads/snapshots",
	"commtm/internal/sweep/journal",
}

func TestImportGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, bad := range forbidden {
				if path == bad || strings.HasPrefix(path, bad+"/") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
