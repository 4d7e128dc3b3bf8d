package sweep

import (
	"commtm"
	"commtm/internal/arena"
	"commtm/internal/workloads/snapshots"
)

// Memo is a result memo: one simulated Result per distinct cell identity,
// shared by every engine run handed it (Engine.Memo). The paper's figures
// show several views of the same runs — Fig. 16 and its five sub-figures,
// Figs. 17 and 18, Table II — and one commtm-bench invocation owns one Memo
// so each distinct cell simulates once per process. The zero value is an
// empty, unbounded memo ready to use; a nil *Memo memoizes nothing.
//
// The identity is the workload name, the workload's canonical params string
// (snapshots.Snapshotter.SnapshotParams) and the complete machine
// configuration — everything a run reads. Presentation fields (Index,
// Variant.Label, Geometry.Label) are not part of it: fig10's "CommTM w/
// gather" and the plain CommTM variant are the same machine. Workloads
// without a params string (no Snapshotter, or ok=false) are never memoized.
//
// A failed cell is never cached: its owner returns its own verdict and any
// cell waiting on it re-runs for a verdict of its own. The determinism
// gates (the conformance oracle and CheckDeterminism) build memo-less
// engines, so they always re-simulate. EXPERIMENTS.md "The
// result-memo contract" has the full contract.
//
// It is the generic keyed-singleflight core (internal/arena), unbounded:
// one entry is a Stats block and a digest string, so a whole paper run
// memoizes a few hundred small entries.
type Memo struct {
	c arena.Arena[memoKey, memoEntry]
}

// memoKey is a cell's full simulation identity.
type memoKey struct {
	workload string
	params   string
	cfg      commtm.Config
}

// memoEntry is the simulated part of a passing cell's Result.
type memoEntry struct {
	stats  commtm.Stats
	digest string
}

// uncached is the panic value a memo owner raises after a failed cell: the
// arena's panic protocol unpublishes the pending entry and wakes its
// waiters, which re-claim and run the cell themselves. runCell recovers it
// without overwriting the cell's own error.
type uncached struct{}

// keyOf returns w's memo identity under c, and false when there is no memo
// or w declares no canonical params (such a cell always simulates).
func (mo *Memo) keyOf(c Cell, w Workload) (memoKey, bool) {
	if mo == nil {
		return memoKey{}, false
	}
	sn, ok := w.(snapshots.Snapshotter)
	if !ok {
		return memoKey{}, false
	}
	params, ok := sn.SnapshotParams()
	if !ok {
		return memoKey{}, false
	}
	return memoKey{workload: w.Name(), params: params, cfg: c.Config()}, true
}
