package commtm_test

import (
	"fmt"
	"testing"

	"commtm"
	"commtm/internal/experiments"
	"commtm/internal/harness"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
)

// Each benchmark regenerates one figure or table of the paper at a reduced
// sweep (1/8/32 threads, scaled inputs) and reports the headline metric —
// the CommTM-vs-baseline speedup ratio at the largest thread count — via
// b.ReportMetric. Run the full-size sweeps with cmd/commtm-bench.
//
// b.N loops re-run the whole experiment; these are macro-benchmarks, so
// typical invocations use -benchtime=1x.

var _ = experiments.Description // populate the registry

func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Threads = []int{1, 8, 32}
	o.Scale = 0.25
	return o
}

func runExperiment(b *testing.B, id string) {
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkTab1Config(b *testing.B)          { runExperiment(b, "tab1") }
func BenchmarkTab2Characteristics(b *testing.B) { runExperiment(b, "tab2") }

func BenchmarkFig09Counter(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10Refcount(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig12aListEnq(b *testing.B)   { runExperiment(b, "fig12a") }
func BenchmarkFig12bListMixed(b *testing.B) { runExperiment(b, "fig12b") }
func BenchmarkFig13OrderedPut(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14TopK(b *testing.B)       { runExperiment(b, "fig14") }

func BenchmarkFig16aBoruvka(b *testing.B)  { runExperiment(b, "fig16a") }
func BenchmarkFig16bKMeans(b *testing.B)   { runExperiment(b, "fig16b") }
func BenchmarkFig16cSSCA2(b *testing.B)    { runExperiment(b, "fig16c") }
func BenchmarkFig16dGenome(b *testing.B)   { runExperiment(b, "fig16d") }
func BenchmarkFig16eVacation(b *testing.B) { runExperiment(b, "fig16e") }

func BenchmarkFig17CycleBreakdown(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18WastedBreakdown(b *testing.B) { runExperiment(b, "fig18") }
func BenchmarkFig19GETBreakdown(b *testing.B)    { runExperiment(b, "fig19") }

func BenchmarkAblationGather(b *testing.B) { runExperiment(b, "ablation-gather") }

// BenchmarkVacationTxnCell runs a single vacation sweep cell (CommTM, 8
// threads) end to end, mirroring the fig16e registration's input shape
// (STAMP ratio r/t = 4, items fixed at 1024). Vacation's deep transactions
// made this the cell whose wall time dominated every full-scale sweep —
// the "vacation wall" — so its per-cell cost is pinned here as its own
// benchmark rather than only inside the whole-figure macro run.
func BenchmarkVacationTxnCell(b *testing.B) {
	o := benchOptions()
	t := o.ScaledOps(8192)
	spec := harness.Spec{Name: apps.VacationName, Mk: func() harness.Workload {
		return apps.NewVacation(1024, 4*t, t, 4, o.Seed)
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := harness.RunOne(spec, harness.VarCommTM, 8, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(st.Cycles), "sim-cycles")
		}
	}
}

// BenchmarkMachineResetSeed measures Machine.ResetSeed, the per-cell cost
// of machine reuse, at 8 and 128 threads, each reset following a small
// counter run that dirties the caches, store and directory as a short cell
// does. The run is untimed but repeats before every reset and dominates the
// benchmark's own wall time, so pick the iteration count (-benchtime=200x).
func BenchmarkMachineResetSeed(b *testing.B) {
	for _, threads := range []int{8, 128} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			m := commtm.New(commtm.Config{Threads: threads, Protocol: commtm.CommTM, Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runWorkload(m, micro.NewCounter(500))
				b.StartTimer()
				m.ResetSeed(uint64(i) + 2)
			}
		})
	}
}
