package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"commtm"
	"commtm/internal/workloads/inputs"
	"commtm/internal/workloads/micro"
	"commtm/internal/workloads/snapshots"
)

// addWorkload is a minimal counter workload for engine plumbing tests.
type addWorkload struct {
	ops     int
	threads int
	ctr     commtm.Addr
	add     commtm.LabelID
}

func (w *addWorkload) Name() string { return "add" }

func (w *addWorkload) Setup(m *commtm.Machine) {
	w.threads = m.Config().Threads
	w.add = m.DefineLabel(commtm.AddLabel("ADD"))
	w.ctr = m.AllocLines(1)
}

func (w *addWorkload) Body(t *commtm.Thread) {
	for i := 0; i < w.ops/w.threads; i++ {
		t.Txn(func() {
			t.StoreL(w.ctr, w.add, t.LoadL(w.ctr, w.add)+1)
		})
	}
}

func (w *addWorkload) Validate(m *commtm.Machine) error {
	want := uint64(w.ops / w.threads * w.threads)
	if got := m.MemRead64(w.ctr); got != want {
		return fmt.Errorf("counter %d != %d", got, want)
	}
	return nil
}

func testMatrix() Matrix {
	return Matrix{
		Workloads: []WorkloadSpec{{Name: "add", Mk: func() Workload { return &addWorkload{ops: 240} }}},
		Variants: []Variant{
			{Label: "Baseline", Protocol: commtm.Baseline},
			{Label: "CommTM", Protocol: commtm.CommTM},
		},
		Threads: []int{1, 2, 4},
		Seeds:   []uint64{1, 2},
	}
}

func TestMatrixCells(t *testing.T) {
	cells := testMatrix().Cells()
	if len(cells) != 1*2*3*2 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	// Variants innermost: one conformance group is contiguous.
	if cells[0].Variant.Label != "Baseline" || cells[1].Variant.Label != "CommTM" {
		t.Fatalf("variant order: %s, %s", cells[0].Variant.Label, cells[1].Variant.Label)
	}
	if cells[0].Threads != cells[1].Threads || cells[0].Seed != cells[1].Seed {
		t.Fatal("adjacent variant cells differ in configuration")
	}
}

func TestGeometryReachesMachine(t *testing.T) {
	g := Geometry{Label: "tiny", L1Bytes: 8 * commtm.LineBytes, L1Ways: 2, L2Bytes: 16 * commtm.LineBytes, L2Ways: 2}
	cfg := Cell{Threads: 2, Seed: 1, Geometry: g}.Config()
	if cfg.L1Bytes != g.L1Bytes || cfg.L1Ways != g.L1Ways || cfg.L2Bytes != g.L2Bytes || cfg.L2Ways != g.L2Ways {
		t.Fatalf("geometry not plumbed: %+v", cfg)
	}
	r := RunCell(Cell{
		Variant: Variant{Label: "CommTM", Protocol: commtm.CommTM},
		Threads: 2, Seed: 1, Geometry: g,
		Mk: func() Workload { return &addWorkload{ops: 240} },
	})
	if r.Err != "" {
		t.Fatalf("tiny-geometry cell failed: %s", r.Err)
	}
}

// TestReuseMatchesFresh is the lifecycle guarantee at engine level: running
// a matrix on per-worker machine arenas (ReuseOn, the default) must produce
// results and sink bytes identical to fresh-machine-per-cell runs
// (ReuseOff), at any worker count.
func TestReuseMatchesFresh(t *testing.T) {
	cells := testMatrix().Cells()
	run := func(reuse Reuse, workers int) (Results, string) {
		var buf bytes.Buffer
		eng := Engine{Workers: workers, Reuse: reuse, Sinks: []Sink{NewJSONL(&buf)}}
		rs, err := eng.Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return rs, buf.String()
	}
	freshRs, freshJSON := run(ReuseOff, 1)
	for _, workers := range []int{1, 0} {
		reusedRs, reusedJSON := run(ReuseOn, workers)
		for i := range freshRs {
			if freshRs[i].Stats != reusedRs[i].Stats || freshRs[i].Digest != reusedRs[i].Digest {
				t.Errorf("workers=%d: cell %d differs between fresh and reused machines", workers, i)
			}
		}
		stripWall := regexp.MustCompile(`"wall_ns":[0-9]+`)
		if got, want := stripWall.ReplaceAllString(reusedJSON, ""), stripWall.ReplaceAllString(freshJSON, ""); got != want {
			t.Errorf("workers=%d: JSONL output differs between reuse modes (modulo wall_ns)", workers)
		}
	}
}

// TestSchedulerAffinityAndStealing exercises the configuration-affinity
// scheduler directly: every cell is handed out exactly once, groups are
// drained in order by their owner, and once all groups are owned an idle
// worker steals from the largest remainder.
func TestSchedulerAffinityAndStealing(t *testing.T) {
	cells := testMatrix().Cells() // 12 cells, 6 distinct configs (2 variants × 3 threads)
	q := newSched(cells, true)
	if got := len(q.groups); got != 6 {
		t.Fatalf("scheduler built %d groups, want 6 (variants × threads)", got)
	}
	seen := make(map[int]bool)
	var cur *schedGroup
	for {
		g, i, ok := q.next(cur, nil)
		if !ok {
			break
		}
		cur = g
		if seen[i] {
			t.Fatalf("cell %d handed out twice", i)
		}
		seen[i] = true
	}
	if len(seen) != len(cells) {
		t.Fatalf("scheduler handed out %d cells, want %d", len(seen), len(cells))
	}
	// A second worker starting now finds everything claimed.
	if _, _, ok := q.next(nil, nil); ok {
		t.Fatal("exhausted scheduler handed out a cell")
	}

	// Stealing: one group of 4 cells, two workers. The second worker must
	// steal from the owned group rather than idle.
	one := []Cell{{Index: 0, Threads: 1, Seed: 1}, {Index: 1, Threads: 1, Seed: 2}, {Index: 2, Threads: 1, Seed: 3}, {Index: 3, Threads: 1, Seed: 4}}
	q = newSched(one, true)
	if got := len(q.groups); got != 1 {
		t.Fatalf("same-config cells built %d groups, want 1", got)
	}
	if _, _, ok := q.next(nil, nil); !ok { // worker A claims the group
		t.Fatal("worker A got no cell")
	}
	if _, _, ok := q.next(nil, nil); !ok { // worker B must steal
		t.Fatal("worker B could not steal from the owned group")
	}
}

// TestArenaReusesAndDrops covers the worker's pool view: same configuration
// → same machine (Reset by the cell), different seed → same machine, failed
// cell → the machine is dropped and rebuilt.
func TestArenaReusesAndDrops(t *testing.T) {
	pool := NewMachinePool()
	defer pool.Close()
	wm := &workerMachines{pool: pool, w: 0}
	c1 := Cell{Workload: "add", Threads: 2, Seed: 1, Mk: func() Workload { return &addWorkload{ops: 8} }}
	c2 := c1
	c2.Seed = 99
	m1, reused := wm.acquire(c1)
	if reused {
		t.Fatal("first acquire of a configuration reported reuse")
	}
	r := runCell(c2, wm, nil, nil, nil, nil)
	if r.Err != "" {
		t.Fatalf("reused-machine cell failed: %s", r.Err)
	}
	m2, reused := wm.acquire(c2)
	if !reused || m2 != m1 {
		t.Fatal("cell with different seed did not reuse the pooled machine")
	}
	// A panicking cell must drop its machine from the pool.
	boom := c1
	boom.Mk = func() Workload { return &panicWorkload{addWorkload{ops: 1}} }
	if r := runCell(boom, wm, nil, nil, nil, nil); !strings.Contains(r.Err, "boom") {
		t.Fatalf("panic not captured: %q", r.Err)
	}
	if wm.has(arenaKey(boom)) {
		t.Fatal("failed cell's machine still pooled")
	}
	// And the next cell of that configuration runs on a fresh machine.
	if r := runCell(c1, wm, nil, nil, nil, nil); r.Err != "" {
		t.Fatalf("cell after dropped machine failed: %s", r.Err)
	}
	// A failure before the machine is acquired (workload constructor panic)
	// must NOT drop the configuration's healthy pooled machine.
	kept, reused := wm.acquire(c1)
	if !reused {
		t.Fatal("no pooled machine to protect")
	}
	mkBoom := c1
	mkBoom.Mk = func() Workload { panic("constructor boom") }
	if r := runCell(mkBoom, wm, nil, nil, nil, nil); !strings.Contains(r.Err, "constructor boom") {
		t.Fatalf("constructor panic not captured: %q", r.Err)
	}
	m4, reused := wm.acquire(c1)
	if !reused || m4 != kept {
		t.Fatal("pre-acquire failure dropped the pooled machine")
	}
}

// stealingMatrix builds the migration-prone tail-stealing shape: few
// distinct configurations with skewed cell counts (sizes[c] seeds for
// config c), so groups drain at different times and finished workers
// migrate into the surviving groups.
func stealingMatrix(sizes []int) []Cell {
	var cells []Cell
	for c, n := range sizes {
		for s := 0; s < n; s++ {
			cells = append(cells, Cell{
				Index: len(cells), Workload: "add", Threads: c + 1, Seed: uint64(s + 1),
				Mk: func() Workload { return &addWorkload{ops: 8} },
			})
		}
	}
	return cells
}

// legacyNext reimplements the pre-chunking steal policy (take one cell from
// the group with the largest remainder) over the same group state, so the
// regression test can quantify the duplicate machines the old policy built.
// Kept test-only: it exists to document the before/after.
func legacyNext(groups []*schedGroup, cur *schedGroup) (*schedGroup, int, bool) {
	take := func(g *schedGroup) (*schedGroup, int, bool) {
		i := g.cells[g.next]
		g.next++
		return g, i, true
	}
	if cur != nil && cur.remaining() > 0 {
		return take(cur)
	}
	for _, g := range groups {
		if !g.owned && g.remaining() > 0 {
			g.owned = true
			return take(g)
		}
	}
	var best *schedGroup
	for _, g := range groups {
		if g.remaining() > 0 && (best == nil || g.remaining() > best.remaining()) {
			best = g
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return take(best)
}

// simulateMachines drives a scheduler with `workers` simulated workers in
// round-robin lockstep and returns how many machines per-worker arenas
// would build: the number of distinct (worker, configuration) pairs. Each
// simulated worker's seen-set doubles as its affinity predicate, exactly as
// Engine.Run's workers feed their pooled-config sets to the scheduler.
func simulateMachines(t *testing.T, cells []Cell, workers int,
	next func(cur *schedGroup, have func(commtm.Config) bool) (*schedGroup, int, bool)) int {
	t.Helper()
	type wstate struct {
		cur  *schedGroup
		done bool
		seen map[commtm.Config]bool
	}
	ws := make([]wstate, workers)
	for i := range ws {
		ws[i].seen = make(map[commtm.Config]bool)
	}
	machines, handed := 0, 0
	for active := workers; active > 0; {
		for i := range ws {
			w := &ws[i]
			if w.done {
				continue
			}
			g, ci, ok := next(w.cur, func(k commtm.Config) bool { return w.seen[k] })
			if !ok {
				w.done = true
				active--
				continue
			}
			w.cur = g
			handed++
			if k := arenaKey(cells[ci]); !w.seen[k] {
				w.seen[k] = true
				machines++
			}
		}
	}
	if handed != len(cells) {
		t.Fatalf("scheduler handed out %d cells, want %d", handed, len(cells))
	}
	return machines
}

// TestChunkedStealingBoundsDuplicateMachines is the regression test for the
// tail-stealing bug: at worker counts far above the number of distinct
// configurations, the old one-cell-at-a-time steal made workers finishing a
// drained group migrate — together — through each surviving group, so most
// workers built machines for most configurations. Chunked stealing (split
// off half the victim's remainder as a private group) keeps each migrant on
// one configuration for a whole chunk. The simulation is deterministic
// (lockstep round-robin), so the counts are exact: the chunked machine
// count must stay within one machine per worker plus one per configuration,
// and at least 1.5x below the legacy policy's on this shape (measured:
// 28 vs 50; BENCH_inputs.json records the pair).
func TestChunkedStealingBoundsDuplicateMachines(t *testing.T) {
	sizes := []int{8, 16, 32, 128} // skewed groups: drain times differ
	const workers = 24             // far above the 4 distinct configurations
	cells := stealingMatrix(sizes)
	chunked := simulateMachines(t, cells, workers, newSched(cells, true).next)

	legacy := newSched(cells, true)
	legacyMachines := simulateMachines(t, cells, workers,
		func(cur *schedGroup, _ func(commtm.Config) bool) (*schedGroup, int, bool) {
			legacy.mu.Lock()
			defer legacy.mu.Unlock()
			return legacyNext(legacy.groups, cur)
		})

	t.Logf("machines built: chunked=%d legacy=%d (workers=%d configs=%d cells=%d)",
		chunked, legacyMachines, workers, len(sizes), len(cells))
	if chunked*3 > legacyMachines*2 {
		t.Errorf("chunked stealing built %d machines vs legacy %d; want at least 1.5x fewer",
			chunked, legacyMachines)
	}
	if chunked > workers+len(sizes) {
		t.Errorf("chunked stealing built %d machines, budget %d", chunked, workers+len(sizes))
	}
}

// TestAffinityStealingPrefersPooledConfigs pins the affinity-aware steal
// policy: once every group is owned, a stealer holding a pooled machine for
// some configuration steals from that configuration's group — even when
// another group has a larger remainder — and only falls back to the largest
// remainder when it has no affinity anywhere. The deterministic lockstep
// simulation beside TestChunkedStealingBoundsDuplicateMachines then shows
// the policy never builds more machines than remainder-only stealing on the
// skewed regression shape.
func TestAffinityStealingPrefersPooledConfigs(t *testing.T) {
	// Config A (threads=1): 6 cells; config B (threads=2): 20 cells.
	cells := stealingMatrix([]int{6, 20})
	q := newSched(cells, true)
	gA, _, ok := q.next(nil, nil) // worker 1 claims A (first-appearance order)
	if !ok || cells[gA.cells[gA.next-1]].Threads != 1 {
		t.Fatal("worker 1 did not claim config A")
	}
	gB, _, ok := q.next(nil, nil) // worker 2 claims B
	if !ok || cells[gB.cells[gB.next-1]].Threads != 2 {
		t.Fatal("worker 2 did not claim config B")
	}
	// Worker 3 pools a machine for A: it must steal from A despite B's much
	// larger remainder.
	g, i, ok := q.next(nil, func(k commtm.Config) bool { return k == gA.key })
	if !ok {
		t.Fatal("affinity stealer got no cell")
	}
	if g.key != gA.key || cells[i].Threads != 1 {
		t.Fatalf("affinity stealer got config with %d threads, want its pooled config A", cells[i].Threads)
	}
	// Worker 4 with no affinity falls back to the largest remainder (B).
	g, i, ok = q.next(nil, func(commtm.Config) bool { return false })
	if !ok || g.key != gB.key || cells[i].Threads != 2 {
		t.Fatal("no-affinity stealer did not take the largest remainder")
	}

	// Lockstep comparison on the regression shape: affinity-aware stealing
	// must never build more machines than remainder-only stealing.
	sizes := []int{8, 16, 32, 128}
	const workers = 24
	cells = stealingMatrix(sizes)
	affinity := simulateMachines(t, cells, workers, newSched(cells, true).next)
	q2 := newSched(cells, true)
	remainderOnly := simulateMachines(t, cells, workers,
		func(cur *schedGroup, _ func(commtm.Config) bool) (*schedGroup, int, bool) {
			return q2.next(cur, nil)
		})
	t.Logf("machines built: affinity=%d remainder-only=%d (workers=%d configs=%d)",
		affinity, remainderOnly, workers, len(sizes))
	if affinity > remainderOnly {
		t.Errorf("affinity stealing built %d machines vs %d remainder-only; must never be worse",
			affinity, remainderOnly)
	}
	if affinity > workers+len(sizes) {
		t.Errorf("affinity stealing built %d machines, budget %d", affinity, workers+len(sizes))
	}
}

// TestInputArenaMatchesFresh is the input-arena guarantee at engine level:
// running a matrix with cached-input replay (InputsOn, the default) must
// produce results bit-identical to fresh generation per cell (InputsOff),
// and the shared arena must actually hit across variants and workers.
func TestInputArenaMatchesFresh(t *testing.T) {
	mx := Matrix{
		Workloads: []WorkloadSpec{
			{Name: micro.OPutName, Mk: func() Workload { return micro.NewOPut(240) }},
			{Name: micro.RefcountName, Mk: func() Workload { return micro.NewRefcount(240, 8) }},
			{Name: micro.TopKName, Mk: func() Workload { return micro.NewTopK(200, 16) }},
			{Name: micro.ListName(0.5), Mk: func() Workload { return micro.NewList(200, 0.5) }},
		},
		Variants: []Variant{
			{Label: "Baseline", Protocol: commtm.Baseline},
			{Label: "CommTM", Protocol: commtm.CommTM},
		},
		Threads: []int{1, 2},
		Seeds:   []uint64{1, 2},
	}
	run := func(in InputMode, workers int, rm *RunMetrics) Results {
		// Snapshots off: a snapshot hit skips Setup (and with it the input
		// arena), which would starve the input-arena behavior under test.
		eng := Engine{Workers: workers, InputMode: in, SnapshotMode: SnapshotsOff, Metrics: rm}
		rs, err := eng.Run(mx.Cells())
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	fresh := run(InputsOff, 1, nil)
	for _, workers := range []int{1, 0} {
		rm := &RunMetrics{}
		cached := run(InputsOn, workers, rm)
		for i := range fresh {
			if fresh[i].Stats != cached[i].Stats || fresh[i].Digest != cached[i].Digest {
				t.Errorf("workers=%d: cell %d (%s) differs between fresh and cached inputs",
					workers, i, fresh[i].Key())
			}
		}
		if rm.InputMisses == 0 || rm.InputHits == 0 {
			t.Errorf("workers=%d: input arena never exercised: %+v", workers, rm)
		}
		// Each (workload, threads, seed) input generates once and serves both
		// protocol variants; with one worker the split is exact.
		if workers == 1 && rm.InputHits != rm.InputMisses {
			t.Errorf("workers=1: hits=%d misses=%d; want one hit per miss (two variants per key)",
				rm.InputHits, rm.InputMisses)
		}
	}
}

// genPanicWorkload's Setup-time input generation panics. Both cells of a
// matrix share its input key, which used to wedge the engine: the first
// cell's panic left the singleflight entry pending forever and the second
// cell blocked on it.
type genPanicWorkload struct {
	addWorkload
	in *inputs.Arena
}

func (w *genPanicWorkload) Name() string              { return "gen-panic" }
func (w *genPanicWorkload) UseInputs(a *inputs.Arena) { w.in = a }
func (w *genPanicWorkload) Setup(m *commtm.Machine) {
	inputs.Load(w.in, inputs.Key{Kind: "gen-panic"}, func() int { panic("generation failed") })
	w.addWorkload.Setup(m)
}

// TestGenerationPanicDoesNotWedgeEngine: a Setup-time generation panic must
// fail its cell (and, deterministically, every later cell that re-attempts
// the same broken generation) — never hang Engine.Run.
func TestGenerationPanicDoesNotWedgeEngine(t *testing.T) {
	cells := []Cell{
		{Index: 0, Workload: "gen-panic", Threads: 1, Seed: 1,
			Mk: func() Workload { return &genPanicWorkload{addWorkload: addWorkload{ops: 8}} }},
		{Index: 1, Workload: "gen-panic", Threads: 1, Seed: 2,
			Mk: func() Workload { return &genPanicWorkload{addWorkload: addWorkload{ops: 8}} }},
	}
	done := make(chan Results, 1)
	go func() {
		eng := Engine{Workers: 2}
		rs, err := eng.Run(cells)
		if err != nil {
			t.Error(err)
		}
		done <- rs
	}()
	select {
	case rs := <-done:
		for i, r := range rs {
			if !strings.Contains(r.Err, "generation failed") {
				t.Errorf("cell %d: err = %q, want the generation panic", i, r.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Engine.Run wedged on a generation panic")
	}
}

// TestParallelMatchesSequential is the engine's core guarantee: worker
// count changes wall-clock only, never results or sink bytes.
func TestParallelMatchesSequential(t *testing.T) {
	cells := testMatrix().Cells()
	run := func(workers int) (Results, string, string) {
		var jbuf, cbuf bytes.Buffer
		jsink, csink := NewJSONL(&jbuf), NewCSV(&cbuf)
		eng := Engine{Workers: workers, Sinks: []Sink{jsink, csink}}
		rs, err := eng.Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := csink.Close(); err != nil {
			t.Fatal(err)
		}
		return rs, jbuf.String(), cbuf.String()
	}
	seqRs, seqJSON, seqCSV := run(1)
	parRs, parJSON, parCSV := run(0)

	if err := seqRs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range seqRs {
		if seqRs[i].Stats != parRs[i].Stats || seqRs[i].Digest != parRs[i].Digest {
			t.Errorf("cell %d differs between sequential and parallel runs", i)
		}
	}
	stripWall := regexp.MustCompile(`(?m)("wall_ns":[0-9]+|,[0-9]+$)`)
	if got, want := stripWall.ReplaceAllString(parJSON, ""), stripWall.ReplaceAllString(seqJSON, ""); got != want {
		t.Error("JSONL output differs between sequential and parallel runs (modulo wall_ns)")
	}
	if got, want := stripWall.ReplaceAllString(parCSV, ""), stripWall.ReplaceAllString(seqCSV, ""); got != want {
		t.Error("CSV output differs between sequential and parallel runs (modulo wall_ns)")
	}
	// The CSV header is written once, as the first line, however the rows
	// arrive.
	lines := strings.Split(strings.TrimSpace(parCSV), "\n")
	if !strings.HasPrefix(lines[0], "index,workload") || strings.Count(parCSV, "index,workload") != 1 || len(lines) != len(cells)+1 {
		t.Errorf("CSV has %d lines with %d headers, want one header line then %d rows",
			len(lines), strings.Count(parCSV, "index,workload"), len(cells))
	}
}

func TestSinksReceiveCellsInOrder(t *testing.T) {
	var buf bytes.Buffer
	eng := Engine{Workers: 0, Sinks: []Sink{NewJSONL(&buf)}}
	if _, err := eng.Run(testMatrix().Cells()); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i := 0; ; i++ {
		var r Result
		if err := dec.Decode(&r); err != nil {
			if i != 12 {
				t.Fatalf("decoded %d results, want 12", i)
			}
			break
		}
		if r.Index != i {
			t.Fatalf("sink row %d has index %d: out of order", i, r.Index)
		}
	}
}

// panicWorkload panics mid-run; the engine must contain it in Result.Err.
type panicWorkload struct{ addWorkload }

func (w *panicWorkload) Body(*commtm.Thread) { panic("boom") }

func TestCellPanicIsContained(t *testing.T) {
	cells := []Cell{
		// Both cells carry the instance's name ("add"; panicWorkload embeds
		// addWorkload) — runCell rejects rows whose name diverges.
		{Index: 0, Workload: "add", Variant: Variant{Label: "Baseline"}, Threads: 1, Seed: 1,
			Mk: func() Workload { return &panicWorkload{addWorkload{ops: 1}} }},
		{Index: 1, Workload: "add", Variant: Variant{Label: "Baseline"}, Threads: 1, Seed: 1,
			Mk: func() Workload { return &addWorkload{ops: 240} }},
	}
	eng := Engine{Workers: 2}
	rs, err := eng.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs[0].Err, "boom") {
		t.Fatalf("panic not captured: %q", rs[0].Err)
	}
	if rs[1].Err != "" {
		t.Fatalf("healthy cell poisoned by neighbor panic: %q", rs[1].Err)
	}
	if err := rs.FirstErr(); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("FirstErr = %v", err)
	}
}

func TestFailFastSkipsRemainingCells(t *testing.T) {
	cells := make([]Cell, 6)
	for i := range cells {
		mk := func() Workload { return &addWorkload{ops: 240} }
		if i == 0 {
			mk = func() Workload { return &panicWorkload{addWorkload{ops: 1}} }
		}
		cells[i] = Cell{Index: i, Workload: "add", Variant: Variant{Label: "Baseline"}, Threads: 1, Seed: 1, Mk: mk}
	}
	eng := Engine{Workers: 1, FailFast: true}
	rs, err := eng.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs[0].Err, "boom") {
		t.Fatalf("failing cell err = %q", rs[0].Err)
	}
	for i := 1; i < len(rs); i++ {
		if !strings.Contains(rs[i].Err, "skipped") {
			t.Fatalf("cell %d ran after failure under FailFast: err=%q", i, rs[i].Err)
		}
	}
	// FirstErr must surface the real failure, not a skip marker.
	if err := rs.FirstErr(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("FirstErr = %v", err)
	}
}

func TestDifferentialOracleCatchesDivergence(t *testing.T) {
	mkRes := func(variant, digest string) Result {
		return Result{
			Cell:   Cell{Workload: "w", Variant: Variant{Label: variant}, Threads: 2, Seed: 1},
			Digest: digest,
		}
	}
	agree := Results{mkRes("A", "aa"), mkRes("B", "aa")}
	if err := CheckDifferential(agree); err != nil {
		t.Fatalf("agreeing digests rejected: %v", err)
	}
	diverge := Results{mkRes("A", "aa"), mkRes("B", "bb")}
	err := CheckDifferential(diverge)
	if err == nil {
		t.Fatal("diverging digests accepted")
	}
	for _, needle := range []string{"A=aa", "B=bb", "w/2t/seed=1"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q missing %q", err, needle)
		}
	}
	failed := Results{mkRes("A", "aa"), {Cell: Cell{Workload: "w", Variant: Variant{Label: "B"}, Threads: 2, Seed: 1}, Err: "nope"}}
	if err := CheckDifferential(failed); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("failed cell not reported: %v", err)
	}
}

func TestDeterminismOracle(t *testing.T) {
	eng := Engine{Workers: 0}
	rs, err := eng.Run(testMatrix().Cells())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDeterminism(rs, 0); err != nil {
		t.Fatalf("deterministic engine flagged: %v", err)
	}
	// Tamper with a result: the oracle must notice.
	tampered := append(Results(nil), rs...)
	tampered[3].Stats.Commits++
	if err := CheckDeterminism(tampered, 0); err == nil {
		t.Fatal("tampered Stats not detected")
	}
}

// TestSampledDeterminism covers the determinism oracle's sampled mode: the
// hash-selected subset is stable for a given seed, roughly proportional to
// the requested fraction, varies with the seed, and the sampled oracle
// still accepts a deterministic engine.
func TestSampledDeterminism(t *testing.T) {
	eng := Engine{Workers: 0}
	rs, err := eng.Run(testMatrix().Cells())
	if err != nil {
		t.Fatal(err)
	}
	subset := func(sample float64, seed uint64) map[int]bool {
		o := DeterminismOptions{Sample: sample, SampleSeed: seed}
		sel := make(map[int]bool)
		for _, r := range rs {
			if o.sampled(r.Key()) {
				sel[r.Index] = true
			}
		}
		return sel
	}
	a, b := subset(0.5, 1), subset(0.5, 1)
	if len(a) != len(b) {
		t.Fatalf("same-seed subsets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !b[i] {
			t.Fatalf("same-seed subsets differ at cell %d", i)
		}
	}
	if n := len(subset(0.5, 1)); n == 0 || n == len(rs) {
		t.Fatalf("0.5 sample selected %d of %d cells; want a strict subset", n, len(rs))
	}
	// Every value outside the open interval (0, 1) is full mode; NaN fails
	// both bounds and must not select nothing.
	for _, s := range []float64{0, -0.5, 1.0, 2, math.NaN(), math.Inf(1)} {
		if full := len(subset(s, 1)); full != len(rs) {
			t.Fatalf("sample=%v selected %d of %d cells, want all", s, full, len(rs))
		}
	}
	// Different seeds should (eventually) pick different subsets; check a
	// few seeds rather than asserting on one draw.
	base := subset(0.5, 1)
	varies := false
	for seed := uint64(2); seed < 8 && !varies; seed++ {
		other := subset(0.5, seed)
		if len(other) != len(base) {
			varies = true
			break
		}
		for i := range other {
			if !base[i] {
				varies = true
				break
			}
		}
	}
	if !varies {
		t.Error("sample subset identical across seeds 1..7")
	}
	if err := CheckDeterminismOpts(rs, DeterminismOptions{Workers: 0, Sample: 0.5, SampleSeed: 3}); err != nil {
		t.Fatalf("sampled determinism oracle flagged a deterministic engine: %v", err)
	}
	// The sampled oracle must still catch tampering when the tampered cell
	// is in the subset: sample everything via Sample=0.99.. on a tampered
	// copy is flaky, so tamper a cell known to be selected.
	o := DeterminismOptions{Workers: 0, Sample: 0.5, SampleSeed: 3}
	tampered := append(Results(nil), rs...)
	found := false
	for i := range tampered {
		if o.sampled(tampered[i].Key()) {
			tampered[i].Stats.Commits++
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no cell selected at sample=0.5")
	}
	if err := CheckDeterminismOpts(tampered, o); err == nil {
		t.Fatal("sampled oracle missed tampering inside its subset")
	}
}

func TestTableSinkRenders(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTable(&buf)
	eng := Engine{Workers: 1, Sinks: []Sink{sink}}
	if _, err := eng.Run(testMatrix().Cells()[:2]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"workload", "Baseline", "CommTM", "add"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("table has %d lines, want header + 2 rows", lines)
	}
}

// failWriter fails every write after the first n bytes, like an output file
// whose disk died mid-sweep.
type failWriter struct {
	n       int
	written int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errors.New("disk gone")
	}
	w.written += len(p)
	return len(p), nil
}

// TestCSVSinkReportsWriterErrorPerRow: encoding/csv defers underlying-writer
// errors to Flush, so without a per-row flush a dead output file would go
// unnoticed until Close — after the whole sweep had run. Emit must surface
// the error on the first failing row so the engine aborts.
func TestCSVSinkReportsWriterErrorPerRow(t *testing.T) {
	s := NewCSV(&failWriter{n: 1}) // first flush (header+row) succeeds, then the writer dies
	r := Result{Cell: Cell{Workload: "w", Variant: Variant{Label: "v"}}}
	if err := s.Emit(r); err != nil {
		t.Fatalf("first row failed before the writer died: %v", err)
	}
	if err := s.Emit(r); err == nil {
		t.Fatal("Emit did not report the underlying writer error")
	}
}

// TestEngineSurfacesSinkError: the engine must return the sink error from
// Run (its only error channel) when a sink dies mid-sweep.
func TestEngineSurfacesSinkError(t *testing.T) {
	eng := Engine{Workers: 1, Sinks: []Sink{NewCSV(&failWriter{})}}
	_, err := eng.Run(testMatrix().Cells())
	if err == nil {
		t.Fatal("Run did not surface the sink write error")
	}
}

// snapWorkload is addWorkload plus the Snapshotter hooks, for lifecycle
// tests that need a snapshot-capable workload inside this package.
type snapWorkload struct {
	addWorkload
}

type snapHost struct {
	ctr commtm.Addr
	add commtm.LabelID
}

func (w *snapWorkload) SnapshotParams() (string, bool) { return fmt.Sprintf("ops=%d", w.ops), true }
func (w *snapWorkload) SnapshotHost() any              { return snapHost{ctr: w.ctr, add: w.add} }
func (w *snapWorkload) AdoptHost(m *commtm.Machine, host any) {
	h := host.(snapHost)
	w.threads = m.Config().Threads
	w.ctr, w.add = h.ctr, h.add
}

// TestSnapshotHitResetsOnce pins the double-reset fix: a snapshot-arena hit
// on a reused machine must reset exactly once (inside Machine.Restore),
// not once at acquire and again at Restore. The controls pin the other
// paths: a snapshot miss or a no-snapshot cell on a reused machine resets
// once (at ensurePristine), and a fresh-machine cell resets zero times.
func TestSnapshotHitResetsOnce(t *testing.T) {
	pool := NewMachinePool()
	defer pool.Close()
	wm := &workerMachines{pool: pool, w: 0}
	sa := snapshots.New()
	c := Cell{Workload: "add", Threads: 2, Seed: 1, Mk: func() Workload { return &snapWorkload{addWorkload{ops: 8}} }}

	// resetsDuring runs c and returns how many ResetSeeds the cell's pooled
	// machine performed, peeking at the machine via an acquire before and
	// after the cell.
	resetsDuring := func(c Cell, sa *snapshots.Arena) (uint64, Result) {
		m, _ := wm.acquire(c)
		before := m.ResetCount()
		r := runCell(c, wm, nil, sa, nil, nil)
		if r.Err != "" {
			t.Fatalf("cell failed: %s", r.Err)
		}
		m2, reused := wm.acquire(c)
		if !reused || m2 != m {
			t.Fatal("machine changed identity mid-test")
		}
		after := m2.ResetCount()
		return after - before, r
	}

	// First run of the cell: the peek above pre-built the machine, so the
	// cell sees a reused machine and a snapshot miss — one reset before
	// Setup, then capture.
	missResets, r1 := resetsDuring(c, sa)
	if missResets != 1 {
		t.Fatalf("snapshot-miss cell on reused machine reset %d times, want 1", missResets)
	}
	if st := sa.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first cell arena stats = %+v, want 1 miss", st)
	}

	// Same cell again: machine-pool hit AND snapshot hit. Exactly one reset
	// — the one inside Restore. Before the fix this path reset twice (once
	// at acquire, once in Restore).
	hitResets, r2 := resetsDuring(c, sa)
	if hitResets != 1 {
		t.Fatalf("snapshot-hit cell reset %d times, want exactly 1 (inside Restore)", hitResets)
	}
	if st := sa.Stats(); st.Hits != 1 {
		t.Fatalf("second cell arena stats = %+v, want 1 hit", st)
	}
	if r1.Stats != r2.Stats || r1.Digest != r2.Digest {
		t.Fatal("snapshot-hit cell produced different results than the miss cell")
	}

	// Control: the no-snapshot path on a reused machine resets once too.
	noSnapResets, r3 := resetsDuring(c, nil)
	if noSnapResets != 1 {
		t.Fatalf("no-snapshot cell on reused machine reset %d times, want 1", noSnapResets)
	}
	if r3.Stats != r1.Stats || r3.Digest != r1.Digest {
		t.Fatal("no-snapshot cell produced different results")
	}

	// Control: a cell on a freshly built machine needs no reset at all.
	fresh := NewMachinePool()
	defer fresh.Close()
	wmf := &workerMachines{pool: fresh, w: 0}
	if r := runCell(c, wmf, nil, nil, nil, nil); r.Err != "" {
		t.Fatalf("fresh-machine cell failed: %s", r.Err)
	}
	m, _ := wmf.acquire(c)
	if got := m.ResetCount(); got != 0 {
		t.Fatalf("fresh-machine cell reset %d times, want 0", got)
	}
}

// TestMachinePoolSharedAcrossRuns is the cross-sweep pooling guarantee: two
// engine runs handed the same external MachinePool build machines only in
// the first — the second run's cells all land on Reset-reused machines and
// produce identical results.
func TestMachinePoolSharedAcrossRuns(t *testing.T) {
	cells := testMatrix().Cells()
	pool := NewMachinePool()
	defer pool.Close()
	run := func() (Results, *RunMetrics) {
		rm := &RunMetrics{}
		eng := Engine{Workers: 1, Machines: pool, Metrics: rm}
		rs, err := eng.Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return rs, rm
	}
	r1, m1 := run()
	if m1.MachinesBuilt == 0 {
		t.Fatal("first run built no machines")
	}
	if pool.Len() == 0 {
		t.Fatal("pool did not survive the first run")
	}
	r2, m2 := run()
	if m2.MachinesBuilt != 0 {
		t.Fatalf("second run built %d machines, want 0 (cross-run pool hit)", m2.MachinesBuilt)
	}
	if m2.MachineReuses != int64(len(cells)) {
		t.Fatalf("second run reused %d machines, want %d", m2.MachineReuses, len(cells))
	}
	for i := range r1 {
		if r1[i].Stats != r2[i].Stats || r1[i].Digest != r2[i].Digest {
			t.Errorf("cell %d differs between pool-cold and pool-warm runs", i)
		}
	}
	// Close is the owner's release: it empties the pool.
	pool.Close()
	if n := pool.Len(); n != 0 {
		t.Fatalf("pool holds %d machines after Close, want 0", n)
	}
}

// TestBenchmarkLifecycleCountersExist guards the benchmark's per-layer
// lifecycle metrics: every "lifecycle.<name>" that BENCHMARK.json lists must
// be a JSON field of RunMetrics, which is both what the in-process
// workloads read from Engine.Metrics and what the CLI's host_metrics line
// embeds. The benchmark skips a missing counter without complaint, so a
// deleted field would otherwise only show up as a result line short of
// metrics.
func TestBenchmarkLifecycleCountersExist(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	rt := reflect.TypeOf(RunMetrics{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		fields[name] = true
	}
	n := 0
	for _, m := range bench.PerLayer {
		name, ok := strings.CutPrefix(m.Name, "lifecycle.")
		if !ok {
			continue
		}
		n++
		if !fields[name] {
			t.Errorf("BENCHMARK.json lists %q, but RunMetrics has no JSON field %q", m.Name, name)
		}
	}
	if n == 0 {
		t.Fatal("BENCHMARK.json lists no lifecycle.* metrics; the guard checks nothing")
	}
}
