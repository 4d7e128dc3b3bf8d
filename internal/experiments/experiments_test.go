package experiments

import (
	"testing"

	"commtm/internal/harness"
	"commtm/internal/sweep"
)

// collectSink keeps every emitted row.
type collectSink struct{ rows []sweep.Result }

func (s *collectSink) Emit(r sweep.Result) error { s.rows = append(s.rows, r); return nil }
func (s *collectSink) Close() error              { return nil }

// runAll runs every registered experiment except the conformance oracle,
// in the CLI's -exp all order, on options sharing one sink and the given
// memo (nil = none). It returns each experiment's rows and the summed
// lifecycle counters.
func runAll(t *testing.T, memo *sweep.Memo) (map[string][]sweep.Result, *sweep.RunMetrics) {
	t.Helper()
	o := harness.DefaultOptions()
	o.Scale = 0.05
	o.Threads = []int{1, 2}
	o.Workers = 2
	sink := &collectSink{}
	o.Sinks = []sweep.Sink{sink}
	o.Memo = memo
	o.Metrics = &sweep.RunMetrics{}
	rows := map[string][]sweep.Result{}
	for _, id := range harness.IDs() {
		if id == "conformance" {
			continue
		}
		e, _ := harness.Get(id)
		before := len(sink.rows)
		if _, err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rows[id] = sink.rows[before:]
	}
	return rows, o.Metrics
}

// TestMemoRowsMatchFreshRuns is the result memo's end-to-end contract over
// the whole paper run: with one memo shared by every experiment, each
// emitted row equals a fresh simulation of its cell, and the row keys and
// order are exactly a memo-less run's. The Stats-only tables emit no rows.
func TestMemoRowsMatchFreshRuns(t *testing.T) {
	memoed, rm := runAll(t, &sweep.Memo{})
	plain, prm := runAll(t, nil)
	if rm.MemoHits == 0 {
		t.Fatal("the memo never hit: the figures share no cells?")
	}
	if prm.MemoHits+prm.MemoMisses != 0 {
		t.Fatalf("memo-less run counted memo traffic: %+v", prm)
	}
	for _, id := range []string{"tab2", "ablation-gather"} {
		if n := len(memoed[id]); n != 0 {
			t.Errorf("%s emitted %d rows, want none", id, n)
		}
	}
	for id, rs := range memoed {
		want := plain[id]
		if len(rs) != len(want) {
			t.Errorf("%s: %d rows with the memo, %d without", id, len(rs), len(want))
			continue
		}
		for i, r := range rs {
			if r.Index != want[i].Index || r.Key() != want[i].Key() {
				t.Errorf("%s row %d: %d %s with the memo, %d %s without", id, i, r.Index, r.Key(), want[i].Index, want[i].Key())
			}
			fresh := sweep.RunCell(r.Cell)
			if r.Err != "" || fresh.Err != "" || r.Stats != fresh.Stats || r.Digest != fresh.Digest {
				t.Errorf("%s row %d (%s): memo result differs from a fresh run (err %q / %q)", id, i, r.Key(), r.Err, fresh.Err)
			}
		}
	}
}
