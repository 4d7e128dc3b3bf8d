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

func runGoldenMatrix(t *testing.T, reuse sweep.Reuse, in sweep.InputMode) sweep.Results {
	t.Helper()
	eng := sweep.Engine{Workers: 0, Reuse: reuse, InputMode: in}
	rs, err := eng.Run(goldenCells())
	if err != nil {
		t.Fatalf("golden matrix run failed: %v", err)
	}
	if err := rs.FirstErr(); err != nil {
		t.Fatalf("golden matrix cell failed: %v", err)
	}
	return rs
}

// TestGoldenConformance gates hot-path, lifecycle and input-arena
// refactors on cycle-exactness: every cell of the golden matrix (the reduced
// conformance matrix — 6 workloads × 3 variants × {1,8,32} threads × 2
// seeds — plus the geometry-swept group) must reproduce the committed
// per-cell Stats and memory digests bit-identically, in every combination of
// machine reuse and workload-input arenas. The reuse-on passes are the
// lifecycle proof: a Reset machine that leaked any state between cells
// (cache lines, directory seen bits, RNG position, allocator offsets) would
// diverge from the goldens recorded on fresh machines. The inputs-on passes
// are the replay proof: a cached input or precomputed op stream that
// differed in any way from fresh generation (a draw out of order, a mutated
// graph) would diverge the same way. Any divergence is a real behavior
// change — root-cause it rather than re-baselining (golden drift gets its
// own fix + regression test).
func TestGoldenConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix runs at fixed scale; skipped in -short")
	}
	// The baseline pass regenerates everything per cell, like the revision
	// the goldens were recorded at.
	rs := runGoldenMatrix(t, sweep.ReuseOff, sweep.InputsOff)

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
	checkAgainstGolden(t, rs, want, "reuse=off,inputs=off")

	// Remaining passes against the same goldens: machine reuse alone, input
	// arenas alone, and both on (the engine's production shape).
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOn, sweep.InputsOff), want, "reuse=on,inputs=off")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOff, sweep.InputsOn), want, "reuse=off,inputs=on")
	checkAgainstGolden(t, runGoldenMatrix(t, sweep.ReuseOn, sweep.InputsOn), want, "reuse=on,inputs=on")
}

// TestOneMachinePerWorker pins the reuse policy over the golden matrix: a
// single worker builds a machine exactly when the arena key (configuration
// modulo seed) of the next cell it runs differs from the previous one's,
// and Reset-reuses its machine for every other cell.
func TestOneMachinePerWorker(t *testing.T) {
	cells := goldenCells()
	var keys []commtm.Config // arena keys in the order the worker ran the cells
	for i := range cells {
		mk := cells[i].Mk
		key := cells[i].Config()
		key.Seed = 0
		cells[i].Mk = func() sweep.Workload {
			keys = append(keys, key) // Workers: 1, so no concurrent appends
			return mk()
		}
	}
	rm := &sweep.RunMetrics{}
	rs, err := (&sweep.Engine{Workers: 1, Reuse: sweep.ReuseOn, Metrics: rm}).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(cells) {
		t.Fatalf("ran %d cells, want %d", len(keys), len(cells))
	}
	changes := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			changes++
		}
	}
	if rm.MachinesBuilt != int64(changes) {
		t.Errorf("machines_built = %d, want %d (arena-key changes in run order)", rm.MachinesBuilt, changes)
	}
	if rm.MachineReuses != int64(len(cells)-changes) {
		t.Errorf("machine_reuses = %d, want %d (cells - builds)", rm.MachineReuses, len(cells)-changes)
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
