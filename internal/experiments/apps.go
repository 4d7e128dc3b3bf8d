package experiments

import (
	"fmt"
	"strings"

	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
)

// Application default inputs, scaled from the paper's (Table II) so the
// full suite regenerates in minutes. Options.Scale grows them. Specs carry
// the workloads' exported Name constants, so row naming never builds a
// throwaway instance and cannot diverge from the real ones.
func appWorkloads(o harness.Options) map[string]harness.Spec {
	return map[string]harness.Spec{
		apps.BoruvkaName: {Name: apps.BoruvkaName, Mk: func() harness.Workload {
			side := 24 + int(24*o.Scale)
			return apps.NewBoruvka(side, side, 0.7, o.Seed)
		}},
		apps.KMeansName: {Name: apps.KMeansName, Mk: func() harness.Workload {
			return apps.NewKMeans(o.ScaledOps(4096), 8, 12, 3, o.Seed)
		}},
		apps.SSCA2Name: {Name: apps.SSCA2Name, Mk: func() harness.Workload {
			return apps.NewSSCA2(14, o.ScaledOps(24576), o.Seed)
		}},
		apps.GenomeName: {Name: apps.GenomeName, Mk: func() harness.Workload {
			return apps.NewGenome(512, 32, o.ScaledOps(32768), o.Seed)
		}},
		apps.VacationName: {Name: apps.VacationName, Mk: func() harness.Workload {
			// STAMP's -r sizes the customer relation too (paper input
			// -r32768 -t8192, so r/t = 4): reservation lists stay O(1)
			// no matter how many tasks run. Items stay at a deliberately
			// small 1024 to keep reserve-side contention interesting, but
			// the customer pool must scale with the task count — with it
			// fixed at 256, lists grew linearly in -scale until one
			// delete-customer transaction's footprint overflowed an L1
			// set's 8 ways and self-aborted identically on every retry: a
			// permanent eviction livelock that made -scale 1
			// unfinishable (the "vacation wall").
			t := o.ScaledOps(8192)
			return apps.NewVacation(1024, 4*t, t, 4, o.Seed)
		}},
	}
}

// appOrder fixes the paper's sub-figure order.
var appOrder = []string{apps.BoruvkaName, apps.KMeansName, apps.SSCA2Name, apps.GenomeName, apps.VacationName}

var appFigLetter = map[string]string{
	apps.BoruvkaName: "a", apps.KMeansName: "b", apps.SSCA2Name: "c", apps.GenomeName: "d", apps.VacationName: "e",
}

func init() {
	for _, name := range appOrder {
		name := name
		letter := appFigLetter[name]
		registerSpeedup("fig16"+letter,
			fmt.Sprintf("Fig. 16%s: %s speedup, CommTM vs baseline HTM", letter, name),
			func(o harness.Options) harness.Spec { return appWorkloads(o)[name] },
			[]harness.Variant{harness.VarCommTM, harness.VarBaseline})
	}
	harness.Register(harness.Experiment{
		ID:    "fig16",
		Title: "Fig. 16: per-application speedups (all five applications)",
		Run:   combine("fig16a", "fig16b", "fig16c", "fig16d", "fig16e"),
	})
	harness.Register(harness.Experiment{
		ID:    "fig17",
		Title: "Fig. 17: breakdown of core cycles at 8/32/128 threads",
		Run:   breakdownRun(func(bd *harness.Breakdown) string { return bd.CycleTable() }),
	})
	harness.Register(harness.Experiment{
		ID:    "fig18",
		Title: "Fig. 18: breakdown of wasted cycles by cause at 8/32/128 threads",
		Run:   breakdownRun(func(bd *harness.Breakdown) string { return bd.WastedTable() }),
	})
	harness.Register(harness.Experiment{
		ID:    "fig19",
		Title: "Fig. 19: GET requests between L2s and L3 (boruvka, kmeans)",
		Run: func(o harness.Options) (string, error) {
			var out strings.Builder
			wl := appWorkloads(o)
			for _, name := range []string{apps.BoruvkaName, apps.KMeansName} {
				bd, err := harness.BreakdownSweep("fig19", name, wl[name],
					[]harness.Variant{harness.VarBaseline, harness.VarCommTM}, breakThreads(o), o)
				if err != nil {
					return "", err
				}
				out.WriteString(bd.GetTable())
				out.WriteByte('\n')
			}
			return out.String(), nil
		},
	})
	harness.Register(harness.Experiment{
		ID:    "tab2",
		Title: "Table II: benchmark characteristics (measured)",
		Run:   tableII,
	})
	harness.Register(harness.Experiment{
		ID:    "ablation-gather",
		Title: "Ablation: gather requests on/off for gather-dependent workloads",
		Run:   ablationGather,
	})
}

// combine runs several experiments and concatenates their reports.
func combine(ids ...string) func(harness.Options) (string, error) {
	return func(o harness.Options) (string, error) {
		var out strings.Builder
		for _, id := range ids {
			e, ok := harness.Get(id)
			if !ok {
				return "", fmt.Errorf("experiments: %s not registered", id)
			}
			s, err := e.Run(o)
			if err != nil {
				return "", err
			}
			out.WriteString(s)
			out.WriteByte('\n')
		}
		return out.String(), nil
	}
}

// breakThreads picks the paper's 8/32/128 points, clipped to the sweep.
func breakThreads(o harness.Options) []int {
	std := []int{8, 32, 128}
	maxT := 0
	for _, t := range o.Threads {
		if t > maxT {
			maxT = t
		}
	}
	var out []int
	for _, t := range std {
		if t <= maxT {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []int{maxT}
	}
	return out
}

func breakdownRun(render func(*harness.Breakdown) string) func(harness.Options) (string, error) {
	return func(o harness.Options) (string, error) {
		var out strings.Builder
		wl := appWorkloads(o)
		for _, name := range appOrder {
			bd, err := harness.BreakdownSweep("fig17/18", name, wl[name],
				[]harness.Variant{harness.VarBaseline, harness.VarCommTM}, breakThreads(o), o)
			if err != nil {
				return "", err
			}
			out.WriteString(render(bd))
			out.WriteByte('\n')
		}
		return out.String(), nil
	}
}

// tableII reports each application's commutative operations (static) plus
// the measured labeled-operation fraction and gather usage at the largest
// sweep point, mirroring the paper's Table II and its Sec. VII fractions.
func tableII(o harness.Options) (string, error) {
	ops := map[string]string{
		"boruvka":  "min-weight edges (64b OPUT); union (64b MIN); mark edges (64b MAX); MST weight (64b ADD)",
		"kmeans":   "cluster centroid updates (ADD)",
		"ssca2":    "global graph metadata (ADD)",
		"genome":   "remaining-space counter of resizable hash table (bounded ADD)",
		"vacation": "remaining-space counter of resizable hash tables (bounded ADD)",
	}
	th := breakThreads(o)
	threads := th[len(th)-1]
	wl := appWorkloads(o)
	var cells []sweep.Cell
	for _, name := range appOrder {
		cells = append(cells, statsCell(len(cells), wl[name], harness.VarCommTM, threads, o))
	}
	rs, err := runStats(cells, o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# tab2: Table II — benchmark characteristics (measured at %d threads, CommTM)\n", threads)
	fmt.Fprintf(&b, "%-10s %-12s %-14s %s\n", "app", "uses gather", "labeled frac", "commutative operations")
	for i, name := range appOrder {
		st := rs[i].Stats
		gather := "no"
		if st.Gathers > 0 {
			gather = "yes"
		}
		fmt.Fprintf(&b, "%-10s %-12s %-14.6f %s\n", name, gather, st.LabeledFraction(), ops[name])
	}
	return b.String(), nil
}

// ablationGather quantifies what gather requests buy on the workloads that
// use them (Sec. IV's contribution beyond semantic locking).
func ablationGather(o harness.Options) (string, error) {
	th := breakThreads(o)
	threads := th[len(th)-1]
	mks := map[string]harness.Spec{
		micro.RefcountName: {Name: micro.RefcountName,
			Mk: func() harness.Workload { return micro.NewRefcount(o.ScaledOps(30000), 16) }},
		micro.ListMixedName: {Name: micro.ListName(0.5),
			Mk: func() harness.Workload { return micro.NewList(o.ScaledOps(60000), 0.5) }},
		apps.GenomeName:   appWorkloads(o)[apps.GenomeName],
		apps.VacationName: appWorkloads(o)[apps.VacationName],
	}
	names := []string{micro.RefcountName, micro.ListMixedName, apps.GenomeName, apps.VacationName}
	var cells []sweep.Cell
	for _, name := range names {
		cells = append(cells,
			statsCell(len(cells), mks[name], harness.VarCommTM, threads, o),
			statsCell(len(cells)+1, mks[name], harness.VarCommTMNoGather, threads, o))
	}
	rs, err := runStats(cells, o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# ablation-gather: CommTM with vs without gather requests (%d threads)\n", threads)
	fmt.Fprintf(&b, "%-12s %14s %14s %10s %12s %12s\n", "workload", "with (cyc)", "without (cyc)", "gain", "gathers", "reductions")
	for i, name := range names {
		with, without := rs[2*i].Stats, rs[2*i+1].Stats
		fmt.Fprintf(&b, "%-12s %14d %14d %9.2fx %12d %12d\n",
			name, with.Cycles, without.Cycles,
			float64(without.Cycles)/float64(with.Cycles), with.Gathers, without.Reductions)
	}
	return b.String(), nil
}

// statsCell is one cell of a Stats-only table.
func statsCell(i int, ws harness.Spec, v harness.Variant, threads int, o harness.Options) sweep.Cell {
	return sweep.Cell{Index: i, Workload: ws.Name, Variant: v, Threads: threads, Seed: o.Seed, Mk: ws.Mk}
}

// runStats runs a Stats-only table's cells as one figure sweep with no
// sinks: the tables read Stats and emit no rows of their own, while their
// cells still run on all workers and share the invocation's result memo
// with the figures that show the same runs.
func runStats(cells []sweep.Cell, o harness.Options) (sweep.Results, error) {
	eng := o.Engine()
	eng.Sinks = nil
	rs, err := eng.Run(cells)
	if err != nil {
		return nil, err
	}
	return rs, rs.FirstErr()
}
