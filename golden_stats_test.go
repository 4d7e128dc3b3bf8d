package commtm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"commtm"
	"commtm/internal/experiments"
	"commtm/internal/harness"
	"commtm/internal/sweep"
)

// updateGolden regenerates testdata/golden_conformance.json from the current
// simulator. Legitimate uses only: an intentional, documented model change
// (new latency parameter, protocol fix). Performance refactors must NOT need
// it — the whole point of the golden gate is that hot-path work reproduces
// these numbers bit-identically. See EXPERIMENTS.md "Performance methodology".
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_conformance.json from the current simulator")

const goldenPath = "testdata/golden_conformance.json"

// goldenCell is one recorded cell of the golden matrix (the reduced
// conformance matrix plus the geometry-swept group): identity, full Stats
// block, and the canonical final-state digest. Geometry is omitted for
// default-geometry cells so the original records keep their serialized form.
type goldenCell struct {
	Workload string         `json:"workload"`
	Variant  string         `json:"variant"`
	Threads  int            `json:"threads"`
	Seed     uint64         `json:"seed"`
	Geometry sweep.Geometry `json:"geometry,omitzero"`
	Stats    commtm.Stats   `json:"stats"`
	Digest   string         `json:"digest"`
}

func goldenKey(workload, variant string, threads int, seed uint64, geom sweep.Geometry) string {
	s := fmt.Sprintf("%s/%s/%dt/seed=%d", workload, variant, threads, seed)
	if !geom.IsDefault() {
		s += "/" + geom.Label
	}
	return s
}

// goldenOptions fixes the golden matrix shape. Scale is pinned (not tied to
// testing.Short) because the recorded numbers are only meaningful at one
// input size.
func goldenOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 0.25
	return o
}

// goldenCells expands the golden matrix: experiments.GoldenCells
// (reduced conformance + geometry-swept group) at the pinned golden scale.
func goldenCells() []sweep.Cell {
	return experiments.GoldenCells(goldenOptions())
}

func runGoldenMatrix(t *testing.T, reuse sweep.Reuse, in sweep.InputMode, sn sweep.SnapshotMode) sweep.Results {
	t.Helper()
	return runGoldenEngine(t, sweep.Engine{Workers: 0, Reuse: reuse, InputMode: in, SnapshotMode: sn})
}

func runGoldenEngine(t *testing.T, eng sweep.Engine) sweep.Results {
	t.Helper()
	rs, err := eng.Run(goldenCells())
	if err != nil {
		t.Fatalf("golden matrix run failed: %v", err)
	}
	if err := rs.FirstErr(); err != nil {
		t.Fatalf("golden matrix cell failed: %v", err)
	}
	return rs
}

// TestGoldenConformance gates hot-path, lifecycle, input-arena, and
// machine-image-snapshot refactors on cycle-exactness: every cell of the
// golden matrix (the reduced conformance matrix — 6 workloads × 3 variants
// × {1,8,32} threads × 2 seeds — plus the geometry-swept group) must
// reproduce the committed per-cell Stats and memory digests bit-identically,
// in every combination of machine-arena reuse, workload-input arenas, and
// snapshots. The reuse-on pass is the lifecycle proof: a Reset machine that
// leaked any state between cells (cache lines, directory seen bits, RNG
// position, allocator offsets) would diverge from the goldens recorded on
// fresh machines. The inputs-on passes are the replay proof: a cached input
// or precomputed op stream that differed in any way from fresh generation
// (a draw out of order, a mutated graph) would diverge the same way. The
// snapshots-on passes are the restore proof: a cell whose Setup was skipped
// and replaced by Machine.Restore + host-state adoption must be
// indistinguishable from one that ran Setup — any missed state (a store
// line, the allocator break, a label, an RNG position, a host-side slice)
// diverges here. Any divergence is a real behavior change — root-cause it
// rather than re-baselining (golden drift gets its own fix + regression
// test).
func TestGoldenConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix runs at fixed scale; skipped in -short")
	}
	// The baseline pass regenerates everything per cell, like the revision
	// the goldens were recorded at.
	rs := runGoldenMatrix(t, sweep.ReuseOff, sweep.InputsOff, sweep.SnapshotsOff)

	if *updateGolden {
		cells := make([]goldenCell, 0, len(rs))
		for _, r := range rs {
			cells = append(cells, goldenCell{
				Workload: r.Workload,
				Variant:  r.Variant.Label,
				Threads:  r.Threads,
				Seed:     r.Seed,
				Geometry: r.Geometry,
				Stats:    r.Stats,
				Digest:   r.Digest,
			})
		}
		buf, err := json.MarshalIndent(cells, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells to %s", len(cells), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden at a trusted revision): %v", err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(buf, &cells); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath, err)
	}
	want := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		want[goldenKey(c.Workload, c.Variant, c.Threads, c.Seed, c.Geometry)] = c
	}
	if len(want) != len(rs) {
		t.Errorf("golden file has %d cells, matrix produced %d", len(want), len(rs))
	}
	checkAgainstGolden(t, rs, want, "reuse=off,inputs=off,snapshots=off")

	// Remaining passes against the same goldens: machine reuse alone, input
	// arenas alone, both on, and snapshots layered on top — once over the
	// full-reuse default (the engine's production shape) and once over fresh
	// machines with fresh inputs (so a Restore bug cannot hide behind Reset
	// reuse or cached-input replay).
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOn, sweep.InputsOff, sweep.SnapshotsOff), want, "reuse=on,inputs=off,snapshots=off")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOff, sweep.InputsOn, sweep.SnapshotsOff), want, "reuse=off,inputs=on,snapshots=off")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOn, sweep.InputsOn, sweep.SnapshotsOff), want, "reuse=on,inputs=on,snapshots=off")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOn, sweep.InputsOn, sweep.SnapshotsOn), want, "reuse=on,inputs=on,snapshots=on")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOff, sweep.InputsOff, sweep.SnapshotsOn), want, "reuse=off,inputs=off,snapshots=on")

	// Thread-invariant split snapshots: the golden matrix sweeps counter and
	// oput (both ThreadInvariant opt-ins) across threads {1,8,32}, so with
	// snapshots on the split path must take base hits — the 8- and 32-thread
	// cells adopt the 1-thread cell's base image via RestoreBase instead of
	// running Setup — while every cell still reproduces the committed goldens
	// bit-identically. A base image that dropped any state (a store line, the
	// brk, a label) or a PRNG position that survived adoption diverges here.
	// The goldens are NOT re-baselined for this mode.
	tiRM := &sweep.RunMetrics{}
	tiEng := sweep.Engine{
		Workers: 0, Reuse: sweep.ReuseOn, InputMode: sweep.InputsOn,
		SnapshotMode: sweep.SnapshotsOn, Metrics: tiRM,
	}
	checkAgainstGolden(t, runGoldenEngine(t, tiEng), want, "thread-invariant")
	if tiRM.SnapshotBaseHits == 0 {
		t.Errorf("golden matrix took no base-image hits; the thread-invariant split path is not engaging (metrics: %+v)", tiRM)
	}

	// Cross-sweep machine pool: two consecutive runs share one externally
	// owned pool, so the second run executes almost entirely on machines
	// built (and mutated) by the first and reset at acquire. Both runs must
	// still reproduce the committed goldens bit-identically — a machine that
	// leaked any state across *sweeps* (not just across cells) diverges in
	// run 2. The goldens are NOT re-baselined for this mode.
	pool := sweep.NewMachinePool()
	defer pool.Close()
	poolEng := sweep.Engine{Workers: 0, Reuse: sweep.ReuseOn, InputMode: sweep.InputsOn, SnapshotMode: sweep.SnapshotsOn, Machines: pool}
	checkAgainstGolden(t, runGoldenEngine(t, poolEng), want, "pool=on,run=1")
	checkAgainstGolden(t, runGoldenEngine(t, poolEng), want, "pool=on,run=2")
	if pool.Len() == 0 {
		t.Errorf("cross-sweep pool is empty after two runs; machines were not persisted")
	}
}

func checkAgainstGolden(t *testing.T, rs sweep.Results, want map[string]goldenCell, mode string) {
	t.Helper()
	mismatches := 0
	for _, r := range rs {
		key := goldenKey(r.Workload, r.Variant.Label, r.Threads, r.Seed, r.Geometry)
		g, ok := want[key]
		if !ok {
			t.Errorf("[%s] %s: no golden record", mode, key)
			continue
		}
		if r.Stats != g.Stats {
			mismatches++
			t.Errorf("[%s] %s: Stats drifted from golden:\n  golden: %+v\n  got:    %+v", mode, key, g.Stats, r.Stats)
		}
		if r.Digest != g.Digest {
			mismatches++
			t.Errorf("[%s] %s: digest drifted from golden: want %s, got %s", mode, key, g.Digest, r.Digest)
		}
		if mismatches > 6 {
			t.Fatalf("[%s] too many golden mismatches; stopping after %d", mode, mismatches)
		}
	}
}
