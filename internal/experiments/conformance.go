package experiments

import (
	"fmt"
	"strings"

	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/micro"
)

// Conformance matrix default sizes: large enough that every protocol
// mechanism fires (reductions, gathers, splits, aborts), small enough that
// the full differential + determinism oracle runs under `go test -race` in
// CI. Options.Scale grows or shrinks them.
const (
	confCounterOps  = 4000
	confRefcountOps = 3000
	confListOps     = 2400
	confOPutOps     = 4000
	confTopKOps     = 3000
	confTopKK       = 64
)

// ConformanceThreads and ConformanceSeeds fix the reduced matrix's sweep
// points: a serial run, an intra-socket run, and a run wide enough to
// exercise NACK arbitration and U-line forwarding, each at two seeds.
var (
	ConformanceThreads = []int{1, 8, 32}
	ConformanceSeeds   = []uint64{1, 42}
)

// ConformanceMatrix builds the reduced differential-conformance matrix:
// every micro workload × {Baseline, CommTM, CommTM w/o gather} × the
// reduced thread and seed sweeps. Baseline and CommTM execute the same
// commutative program under different schedules, so the sweep oracle
// requires every cell group to validate and agree on its canonical digest.
func ConformanceMatrix(o harness.Options) sweep.Matrix {
	wl := func(name string, mk func() harness.Workload) sweep.WorkloadSpec {
		return sweep.WorkloadSpec{Name: name, Mk: mk}
	}
	return sweep.Matrix{
		Workloads: []sweep.WorkloadSpec{
			wl(micro.CounterName, func() harness.Workload { return micro.NewCounter(o.ScaledOps(confCounterOps)) }),
			wl(micro.RefcountName, func() harness.Workload { return micro.NewRefcount(o.ScaledOps(confRefcountOps), 16) }),
			wl(micro.ListName(0), func() harness.Workload { return micro.NewList(o.ScaledOps(confListOps), 0) }),
			wl(micro.ListName(0.5), func() harness.Workload { return micro.NewList(o.ScaledOps(confListOps), 0.5) }),
			wl(micro.OPutName, func() harness.Workload { return micro.NewOPut(o.ScaledOps(confOPutOps)) }),
			wl(micro.TopKName, func() harness.Workload { return micro.NewTopK(o.ScaledOps(confTopKOps), confTopKK) }),
		},
		Variants: []sweep.Variant{harness.VarBaseline, harness.VarCommTM, harness.VarCommTMNoGather},
		Threads:  ConformanceThreads,
		Seeds:    ConformanceSeeds,
	}
}

// GeometryMatrix builds the geometry-swept conformance cell group: a small
// set of cache-array-stressing workloads run at non-default set counts and
// associativities (line size is architecturally fixed at 64 B; set counts
// move with capacity). It exists so cache-array and machine-lifecycle
// refactors get golden coverage beyond the Table-I default geometry — the
// default-geometry matrix never exercises the 4-way victim scan or the
// small-L1 eviction pressure these cells produce.
func GeometryMatrix(o harness.Options) sweep.Matrix {
	wl := func(name string, mk func() harness.Workload) sweep.WorkloadSpec {
		return sweep.WorkloadSpec{Name: name, Mk: mk}
	}
	return sweep.Matrix{
		Workloads: []sweep.WorkloadSpec{
			wl(micro.CounterName, func() harness.Workload { return micro.NewCounter(o.ScaledOps(confCounterOps)) }),
			wl(micro.ListName(0.5), func() harness.Workload { return micro.NewList(o.ScaledOps(confListOps), 0.5) }),
			wl(micro.TopKName, func() harness.Workload { return micro.NewTopK(o.ScaledOps(confTopKOps), confTopKK) }),
		},
		Variants: []sweep.Variant{harness.VarBaseline, harness.VarCommTM, harness.VarCommTMNoGather},
		Threads:  []int{8},
		Seeds:    []uint64{1},
		Geometries: []sweep.Geometry{
			// Half-size 4-way caches: 64 L1 sets instead of 64 8-way Table-I
			// sets, twice the conflict-miss pressure.
			{Label: "l1-16k-4w-l2-64k-4w", L1Bytes: 16 * 1024, L1Ways: 4, L2Bytes: 64 * 1024, L2Ways: 4},
			// Tiny 2-way L1 over a high-associativity L2: stresses L1
			// eviction/refill and the 16-way victim scan.
			{Label: "l1-8k-2w-l2-64k-16w", L1Bytes: 8 * 1024, L1Ways: 2, L2Bytes: 64 * 1024, L2Ways: 16},
		},
	}
}

// GoldenCells expands the golden matrix — the reduced conformance matrix
// followed by the geometry-swept group, cell indexes renumbered into one
// sequence. It is the one definition the golden gate (golden_stats_test)
// and the benchmark's seeds workload expand; both key cells by Cell.Key,
// so the keys must be pairwise distinct.
func GoldenCells(o harness.Options) []sweep.Cell {
	cells := ConformanceMatrix(o).Cells()
	for _, c := range GeometryMatrix(o).Cells() {
		c.Index = len(cells)
		cells = append(cells, c)
	}
	return cells
}

func init() {
	harness.Register(harness.Experiment{
		ID:    "conformance",
		Title: "Differential conformance + determinism oracle over the reduced matrix",
		Run: func(o harness.Options) (string, error) {
			rs, err := sweep.ConformanceOpts(ConformanceMatrix(o), o.Oracle())
			if err != nil {
				return "", err
			}
			// The geometry group streams to the same sinks; continue the row
			// index sequence so consumers keying on the index column never
			// see collisions between the two matrices.
			gopts := o.Oracle()
			gopts.IndexBase = len(rs)
			grs, err := sweep.ConformanceOpts(GeometryMatrix(o), gopts)
			if err != nil {
				return "", fmt.Errorf("geometry group: %w", err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "# conformance: %s\n", sweep.Summary(rs))
			fmt.Fprintf(&b, "# geometry group: %s\n", sweep.Summary(grs))
			b.WriteString("all variants agree on canonical digests; re-runs are bit-identical\n")
			return b.String(), nil
		},
	})
}
