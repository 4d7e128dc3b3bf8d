package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commtm"
)

// countWorkload is snapWorkload (memoizable: it declares canonical params)
// that counts its simulations — Validate runs exactly once per simulated
// cell — and can stall or fail one through the optional validate hook.
type countWorkload struct {
	snapWorkload
	validations *atomic.Int64
	validate    func() error
}

func (w *countWorkload) Validate(m *commtm.Machine) error {
	w.validations.Add(1)
	if w.validate != nil {
		if err := w.validate(); err != nil {
			return err
		}
	}
	return w.snapWorkload.Validate(m)
}

// memoCell is one cell of the memo tests: label is presentation only, ops
// is the workload's one constructor parameter.
func memoCell(i int, label string, ops int, n *atomic.Int64) Cell {
	return Cell{
		Index: i, Workload: "add", Threads: 2, Seed: 1,
		Variant: Variant{Label: label, Protocol: commtm.CommTM},
		Mk: func() Workload {
			return &countWorkload{snapWorkload: snapWorkload{addWorkload{ops: ops}}, validations: n}
		},
	}
}

// collectSink keeps every emitted row.
type collectSink struct{ rows []Result }

func (s *collectSink) Emit(r Result) error { s.rows = append(s.rows, r); return nil }
func (s *collectSink) Close() error        { return nil }

func runMemo(t *testing.T, eng Engine, cells []Cell) (Results, *RunMetrics) {
	t.Helper()
	rm := &RunMetrics{}
	eng.Metrics = rm
	rs, err := eng.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	return rs, rm
}

// TestMemoSimulatesOnceUnderConcurrency: many same-identity cells racing
// on every worker simulate once; the rest wait for the owner and hit.
func TestMemoSimulatesOnceUnderConcurrency(t *testing.T) {
	var n atomic.Int64
	var cells []Cell
	for i := 0; i < 16; i++ {
		cells = append(cells, memoCell(i, "CommTM", 64, &n))
	}
	rs, rm := runMemo(t, Engine{Workers: 4, Memo: &Memo{}}, cells)
	if err := rs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("%d simulations of one identity, want 1", got)
	}
	if rm.MemoMisses != 1 || rm.MemoHits != 15 {
		t.Fatalf("memo_misses=%d memo_hits=%d, want 1 and 15", rm.MemoMisses, rm.MemoHits)
	}
	for _, r := range rs[1:] {
		if r.Stats != rs[0].Stats || r.Digest != rs[0].Digest || r.Digest == "" {
			t.Fatalf("cell %d: memoized result differs from the simulated one", r.Index)
		}
	}
}

// TestMemoNeverCachesFailure: a failed cell's verdict stays its own. A
// cell waiting on the failing owner re-runs and passes, and so does a
// later cell of the same identity — until a passing result is cached.
func TestMemoNeverCachesFailure(t *testing.T) {
	var n atomic.Int64
	memo := &Memo{}
	ownerValidating := make(chan struct{})
	waiterMade := make(chan struct{})
	owner := memoCell(0, "CommTM", 64, &n)
	owner.Mk = func() Workload {
		return &countWorkload{snapWorkload: snapWorkload{addWorkload{ops: 64}}, validations: &n,
			validate: func() error {
				close(ownerValidating)
				<-waiterMade
				// Give the waiter time to block on the in-flight entry. Had
				// it not yet claimed, it would become the next owner after
				// the unpublish, and the checks below would hold the same.
				time.Sleep(20 * time.Millisecond)
				return errors.New("owner fails")
			}}
	}
	waiter := memoCell(1, "CommTM", 64, &n)
	mkWaiter := waiter.Mk
	waiter.Mk = func() Workload { close(waiterMade); return mkWaiter() }

	rm := &RunMetrics{}
	var ro, rw Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ro = runCell(owner, nil, nil, nil, memo, rm) }()
	go func() {
		defer wg.Done()
		<-ownerValidating // the owner holds the entry
		rw = runCell(waiter, nil, nil, nil, memo, rm)
	}()
	wg.Wait()
	if ro.Err != "owner fails" {
		t.Fatalf("owner err = %q, want its own validation error", ro.Err)
	}
	if rw.Err != "" || rw.Digest == "" {
		t.Fatalf("waiter inherited a failure: err=%q digest=%q", rw.Err, rw.Digest)
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("%d simulations, want 2 (the failure is not cached)", got)
	}
	// The waiter's passing result is cached now.
	if r := runCell(memoCell(2, "CommTM", 64, &n), nil, nil, nil, memo, rm); r.Err != "" || r.Stats != rw.Stats {
		t.Fatalf("later cell: err=%q, stats equal=%v", r.Err, r.Stats == rw.Stats)
	}
	if rm.MemoMisses != 2 || rm.MemoHits != 1 {
		t.Fatalf("memo_misses=%d memo_hits=%d, want 2 and 1", rm.MemoMisses, rm.MemoHits)
	}
}

// TestMemoKeySplits: every field of the simulation identity splits the
// memo key; presentation labels do not.
func TestMemoKeySplits(t *testing.T) {
	var n atomic.Int64
	base := memoCell(0, "CommTM", 64, &n)
	cases := []struct {
		name  string
		edit  func(c *Cell)
		split bool
	}{
		{"protocol", func(c *Cell) { c.Variant.Protocol = commtm.Baseline }, true},
		{"gather", func(c *Cell) { c.Variant.DisableGather = true }, true},
		{"threads", func(c *Cell) { c.Threads = 4 }, true},
		{"seed", func(c *Cell) { c.Seed = 2 }, true},
		{"geometry", func(c *Cell) { c.Geometry = Geometry{Label: "g", L1Bytes: 16 * 1024, L1Ways: 4} }, true},
		{"params", func(c *Cell) {
			c.Mk = func() Workload {
				return &countWorkload{snapWorkload: snapWorkload{addWorkload{ops: 128}}, validations: &n}
			}
		}, true},
		{"variant label", func(c *Cell) { c.Variant.Label = "CommTM w/ gather" }, false},
		{"geometry label", func(c *Cell) { c.Geometry.Label = "default" }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := base
			other.Index = 1
			tc.edit(&other)
			rs, rm := runMemo(t, Engine{Workers: 1, Memo: &Memo{}}, []Cell{base, other})
			if err := rs.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if hit := rm.MemoHits == 1; hit == tc.split {
				t.Fatalf("memo_hits=%d; %s should split the key: %v", rm.MemoHits, tc.name, tc.split)
			}
		})
	}
}

// TestMemoHitRebindsCell: a hit is emitted under the requesting cell's own
// Index and Variant, with the memoized Stats and digest.
func TestMemoHitRebindsCell(t *testing.T) {
	var n atomic.Int64
	sink := &collectSink{}
	cells := []Cell{memoCell(0, "CommTM", 64, &n), memoCell(1, "CommTM w/ gather", 64, &n)}
	eng := Engine{Workers: 1, Memo: &Memo{}, Sinks: []Sink{sink}}
	if _, err := eng.Run(cells); err != nil {
		t.Fatal(err)
	}
	got := sink.rows
	if len(got) != 2 || n.Load() != 1 {
		t.Fatalf("%d rows from %d simulations, want 2 from 1", len(got), n.Load())
	}
	hit := got[1]
	if hit.Index != 1 || hit.Variant.Label != "CommTM w/ gather" {
		t.Fatalf("hit emitted as index %d variant %q, want 1 %q", hit.Index, hit.Variant.Label, "CommTM w/ gather")
	}
	if hit.Stats != got[0].Stats || hit.Digest != got[0].Digest {
		t.Fatal("hit does not carry the memoized result")
	}
}

// TestMemoHitAcquiresNoMachine: only the simulating cell touches the
// machine pool, whether pooled or fresh-per-cell.
func TestMemoHitAcquiresNoMachine(t *testing.T) {
	for _, reuse := range []Reuse{ReuseOn, ReuseOff} {
		var n atomic.Int64
		cells := []Cell{memoCell(0, "CommTM", 64, &n), memoCell(1, "CommTM", 64, &n), memoCell(2, "x", 64, &n)}
		_, rm := runMemo(t, Engine{Workers: 1, Reuse: reuse, Memo: &Memo{}}, cells)
		if got := rm.MachinesBuilt + rm.MachineReuses; got != 1 {
			t.Fatalf("reuse=%d: %d machine acquires for 1 simulated cell", reuse, got)
		}
		if rm.MemoHits != 2 {
			t.Fatalf("reuse=%d: memo_hits=%d, want 2", reuse, rm.MemoHits)
		}
	}
}

// TestGatesBypassMemo: results produced by a memo engine — every cell but
// the first a hit — still get fully re-simulated by the conformance
// oracle and CheckDeterminism, which build memo-less engines.
func TestGatesBypassMemo(t *testing.T) {
	var n atomic.Int64
	cells := []Cell{memoCell(0, "CommTM", 64, &n), memoCell(1, "CommTM", 64, &n), memoCell(2, "CommTM", 64, &n)}
	rs, rm := runMemo(t, Engine{Workers: 2, Memo: &Memo{}}, cells)
	if err := rs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if rm.MemoHits != 2 || n.Load() != 1 {
		t.Fatalf("setup: memo_hits=%d simulations=%d, want 2 and 1", rm.MemoHits, n.Load())
	}
	// Each gate simulates every cell it checks: the determinism checks
	// re-run the three cells; the conformance oracle runs its two
	// same-identity cells and then re-runs both.
	gates := []struct {
		name string
		want int64
		run  func(rm *RunMetrics) error
	}{
		{"CheckDeterminism", 3, func(rm *RunMetrics) error {
			return CheckDeterminismOpts(rs, DeterminismOptions{Workers: 2, Metrics: rm})
		}},
		{"Conformance", 4, func(rm *RunMetrics) error {
			mx := Matrix{
				Workloads: []WorkloadSpec{{Name: "add", Mk: cells[0].Mk}},
				Variants:  []Variant{{Label: "CommTM", Protocol: commtm.CommTM}, {Label: "again", Protocol: commtm.CommTM}},
				Threads:   []int{2},
				Seeds:     []uint64{1},
			}
			_, err := ConformanceOpts(mx, OracleOptions{Workers: 2, Metrics: rm})
			return err
		}},
	}
	for _, g := range gates {
		before := n.Load()
		grm := &RunMetrics{}
		if err := g.run(grm); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := n.Load() - before; got != g.want || grm.MemoHits != 0 {
			t.Fatalf("%s: %d simulations (memo_hits=%d), want %d and no memo", g.name, got, grm.MemoHits, g.want)
		}
	}
}
