// Package harness runs workloads on simulated machines and regenerates the
// paper's figures and tables: thread-count sweeps for the speedup figures
// (Figs. 9–16), cycle and wasted-cycle breakdowns (Figs. 17–18), coherence
// traffic breakdowns (Fig. 19), and the configuration/characteristics
// tables (Tables I–II).
package harness

import (
	"fmt"
	"sort"
	"strings"

	"commtm"
	"commtm/internal/sweep"
	"commtm/internal/workloads/inputs"
	"commtm/internal/workloads/snapshots"
)

// Workload is one benchmark: it allocates and initializes simulated memory,
// runs a per-thread body, and validates the final state against a
// sequential reference. A Workload instance is single-use; build a fresh
// one per machine. It is an alias of the sweep engine's workload interface,
// so every harness workload runs on the parallel engine unchanged.
//
// Workloads may additionally implement Snapshotter, the machine-image
// snapshot-compatibility hook: a workload whose Setup is a pure function of
// (constructor params, seed, machine configuration) declares its canonical
// parameter key and exposes/adopts its Setup-computed host state, letting
// the engine skip Setup on repeated cells via Machine.Restore. A workload
// whose Setup depends on anything outside that tuple — including machine
// RNG draws it cannot replay — must return ok=false from SnapshotParams (or
// not implement the interface), which opts it out per cell. See
// EXPERIMENTS.md "The machine-image snapshot contract".
type Workload = sweep.Workload

// Snapshotter is the snapshot-compatibility hook workloads may implement;
// see Workload.
type Snapshotter = snapshots.Snapshotter

// Variant labels one protocol configuration in a sweep.
type Variant = sweep.Variant

// Spec names one workload family and how to build instances. The name is
// the workloads' exported Name constant (the same constant their Name
// methods return), so sink-row naming needs no throwaway instance and the
// engine's per-cell name check (runCell) guarantees it cannot silently
// diverge from the real instance.
type Spec = sweep.WorkloadSpec

// Baseline and CommTM are the paper's two standard variants.
var (
	VarBaseline = Variant{Label: "Baseline", Protocol: commtm.Baseline}
	VarCommTM   = Variant{Label: "CommTM", Protocol: commtm.CommTM}
	// VarCommTMNoGather is the "CommTM w/o gather" configuration (Fig. 10).
	VarCommTMNoGather = Variant{Label: "CommTM w/o gather", Protocol: commtm.CommTM, DisableGather: true}
)

// DefaultThreads is the sweep used by the paper's figures (1–128 threads).
var DefaultThreads = []int{1, 2, 4, 8, 16, 32, 64, 128}

// RunOne builds a machine, runs the workload, validates, and returns stats.
// It is a single-cell sweep.
func RunOne(ws Spec, v Variant, threads int, seed uint64) (commtm.Stats, error) {
	r := sweep.RunCell(sweep.Cell{
		Workload: ws.Name,
		Variant:  v,
		Threads:  threads,
		Seed:     seed,
		Mk:       ws.Mk,
	})
	if r.Err != "" {
		return commtm.Stats{}, fmt.Errorf("%s [%s, %d threads]: %s", ws.Name, v.Label, threads, r.Err)
	}
	return r.Stats, nil
}

// Point is one measurement in a sweep.
type Point struct {
	Threads int
	Speedup float64
	Stats   commtm.Stats
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced figure: one or more speedup curves over threads,
// all normalized to the 1-thread baseline runtime (as in the paper).
type Figure struct {
	ID, Title string
	Series    []Series
}

// SpeedupSweep reproduces a speedup-vs-threads figure over o.Threads. The
// reference runtime is the 1-thread baseline run (always executed, even if
// the baseline variant is not in the requested series). All cells — the
// reference included — run on the parallel sweep engine with o.Workers
// workers and stream to o.Sinks.
func SpeedupSweep(id, title string, ws Spec, variants []Variant, o Options) (*Figure, error) {
	type key struct {
		v  Variant
		th int
	}
	// The spec's static name labels the sink rows — no throwaway instance;
	// the engine fails any cell whose instance disagrees with it.
	var cells []sweep.Cell
	index := make(map[key]int)
	add := func(v Variant, th int) {
		k := key{v, th}
		if _, dup := index[k]; dup {
			return
		}
		index[k] = len(cells)
		cells = append(cells, sweep.Cell{
			Index:    len(cells),
			Workload: ws.Name,
			Variant:  v,
			Threads:  th,
			Seed:     o.Seed,
			Mk:       ws.Mk,
		})
	}
	add(VarBaseline, 1) // reference cell first
	for _, v := range variants {
		for _, th := range o.Threads {
			add(v, th)
		}
	}
	rs, err := o.Engine().Run(cells)
	if err != nil {
		return nil, err
	}
	if err := rs.FirstErr(); err != nil {
		return nil, err
	}
	ref := float64(rs[index[key{VarBaseline, 1}]].Stats.Cycles)
	fig := &Figure{ID: id, Title: title}
	for _, v := range variants {
		s := Series{Label: v.Label}
		for _, th := range o.Threads {
			st := rs[index[key{v, th}]].Stats
			s.Points = append(s.Points, Point{
				Threads: th,
				Speedup: ref / float64(st.Cycles),
				Stats:   st,
			})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// String renders the figure as an aligned text table, one row per thread
// count and one column per series.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %18s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-8d", f.Series[0].Points[i].Threads)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "  %17.2fx", s.Points[i].Speedup)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxSpeedup returns the best speedup of the named series.
func (f *Figure) MaxSpeedup(label string) float64 {
	best := 0.0
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Speedup > best {
				best = p.Speedup
			}
		}
	}
	return best
}

// At returns the point of series label at the given thread count.
func (f *Figure) At(label string, threads int) (Point, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Threads == threads {
				return p, true
			}
		}
	}
	return Point{}, false
}

// Breakdown reproduces the Fig. 17/18/19 bar groups: for each thread count
// and variant, the cycle breakdown, wasted-cycle breakdown, and GET-request
// breakdown, normalized like the paper (to the 8-thread baseline totals).
type Breakdown struct {
	ID, Title string
	Rows      []BreakdownRow
}

// BreakdownRow is one (variant, threads) bar.
type BreakdownRow struct {
	Variant string
	Threads int
	Stats   commtm.Stats
}

// BreakdownSweep measures the workload at the paper's 8/32/128-thread
// points for both variants, on the parallel sweep engine.
func BreakdownSweep(id, title string, ws Spec, variants []Variant, threads []int, o Options) (*Breakdown, error) {
	var cells []sweep.Cell
	for _, th := range threads {
		for _, v := range variants {
			cells = append(cells, sweep.Cell{
				Index:    len(cells),
				Workload: ws.Name,
				Variant:  v,
				Threads:  th,
				Seed:     o.Seed,
				Mk:       ws.Mk,
			})
		}
	}
	rs, err := o.Engine().Run(cells)
	if err != nil {
		return nil, err
	}
	if err := rs.FirstErr(); err != nil {
		return nil, err
	}
	bd := &Breakdown{ID: id, Title: title}
	for _, r := range rs {
		bd.Rows = append(bd.Rows, BreakdownRow{Variant: r.Variant.Label, Threads: r.Threads, Stats: r.Stats})
	}
	return bd, nil
}

// norm returns the normalization base: the first row's total core cycles
// (the paper normalizes to the baseline at 8 threads).
func (bd *Breakdown) norm(metric func(commtm.Stats) float64) float64 {
	for _, r := range bd.Rows {
		if v := metric(r.Stats); v > 0 {
			return v
		}
	}
	return 1
}

// CycleTable renders the Fig. 17-style breakdown (non-tx / committed /
// aborted core cycles, normalized to the first row's total).
func (bd *Breakdown) CycleTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s (cycles normalized to %s @%d threads)\n",
		bd.ID, bd.Title, bd.Rows[0].Variant, bd.Rows[0].Threads)
	base := float64(bd.Rows[0].Stats.TotalCoreCycles)
	fmt.Fprintf(&b, "%-10s %8s %10s %12s %10s %10s\n", "variant", "threads", "non-tx", "committed", "aborted", "total")
	for _, r := range bd.Rows {
		s := r.Stats
		fmt.Fprintf(&b, "%-10s %8d %10.3f %12.3f %10.3f %10.3f\n",
			r.Variant, r.Threads,
			float64(s.NonTxCycles)/base, float64(s.CommittedCycles)/base,
			float64(s.WastedCycles)/base, float64(s.TotalCoreCycles)/base)
	}
	return b.String()
}

// WastedTable renders the Fig. 18-style wasted-cycle breakdown by cause,
// normalized to the first row's wasted cycles (or 1 if none).
func (bd *Breakdown) WastedTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s (wasted cycles by cause, normalized)\n", bd.ID, bd.Title)
	base := bd.norm(func(s commtm.Stats) float64 { return float64(s.WastedCycles) })
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"variant", "threads", "RaW", "WaR", "gather", "other", "total")
	for _, r := range bd.Rows {
		s := r.Stats
		fmt.Fprintf(&b, "%-10s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			r.Variant, r.Threads,
			float64(s.WastedReadAfterWrite)/base, float64(s.WastedWriteAfterRead)/base,
			float64(s.WastedGather)/base, float64(s.WastedOther)/base,
			float64(s.WastedCycles)/base)
	}
	return b.String()
}

// GetTable renders the Fig. 19-style GET-request breakdown between the
// private L2s and the L3, normalized to the first row's total.
func (bd *Breakdown) GetTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s (GET requests L2→L3, normalized)\n", bd.ID, bd.Title)
	base := bd.norm(func(s commtm.Stats) float64 { return float64(s.GETS + s.GETX + s.GETU) })
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s\n", "variant", "threads", "GETS", "GETX", "GETU", "total")
	for _, r := range bd.Rows {
		s := r.Stats
		fmt.Fprintf(&b, "%-10s %8d %10.3f %10.3f %10.3f %10.3f\n",
			r.Variant, r.Threads,
			float64(s.GETS)/base, float64(s.GETX)/base, float64(s.GETU)/base,
			float64(s.GETS+s.GETX+s.GETU)/base)
	}
	return b.String()
}

// Registry of named experiments (one per paper figure/table), populated by
// the experiments file and consumed by cmd/commtm-bench and bench_test.go.
type Experiment struct {
	ID, Title string
	Run       func(o Options) (string, error)
}

// Options scales experiments: Quick shrinks inputs for CI-speed runs.
type Options struct {
	Threads []int
	Seed    uint64
	Scale   float64 // 1.0 = paper-shaped default size; <1 shrinks inputs

	// Workers bounds host parallelism of the sweep engine: 1 runs
	// sequentially, 0 uses all host cores (runtime.GOMAXPROCS).
	Workers int
	// Reuse selects the machine lifecycle of every sweep: the default
	// (sweep.ReuseOn) runs cells on per-worker machine arenas; ReuseOff
	// builds a fresh machine per cell.
	Reuse sweep.Reuse
	// Inputs selects the workload-input arena policy of every sweep: the
	// default (sweep.InputsOn) caches generated inputs across cells;
	// InputsOff regenerates them per cell.
	Inputs sweep.InputMode
	// Snapshots selects the machine-image snapshot policy of every sweep:
	// the default (sweep.SnapshotsOn) captures post-Setup machine images
	// and restores them on repeated cells; SnapshotsOff runs Setup per cell.
	Snapshots sweep.SnapshotMode
	// InputArena / SnapshotArena, when non-nil, are externally owned arenas
	// every sweep run with these options shares (sweep.Engine.Inputs /
	// Engine.Snapshots semantics): one commtm-bench invocation hands the
	// same pair across all its figure sweeps so inputs and machine images
	// cache process-wide.
	InputArena    *inputs.Arena
	SnapshotArena *snapshots.Arena
	// MachinePool, when non-nil, is the machine-pool counterpart of
	// InputArena/SnapshotArena: an externally owned cross-sweep pool
	// (sweep.Engine.Machines semantics) so one commtm-bench invocation
	// builds each (worker, configuration) machine once across all its
	// figure sweeps. Only meaningful under ReuseOn.
	MachinePool *sweep.MachinePool
	// DetSample/DetSampleSeed select the determinism oracle's sampled mode
	// for the conformance experiment; zero DetSample re-runs every cell.
	DetSample     float64
	DetSampleSeed uint64
	// Sinks receive every cell result of every sweep, in cell order.
	Sinks []sweep.Sink
	// Memo, when non-nil, is the result memo every figure sweep run with
	// these options shares (sweep.Engine.Memo semantics): one commtm-bench
	// invocation owns one, so a cell that several figures show simulates
	// once. Oracle never passes it on — the determinism gates re-simulate.
	Memo *sweep.Memo
	// Metrics, when non-nil, accumulates host-side lifecycle counters
	// (machines built/reused, input arena hits/misses) across every
	// sweep run with these options.
	Metrics *sweep.RunMetrics
}

// DefaultOptions is used when flags don't override.
func DefaultOptions() Options {
	return Options{Threads: DefaultThreads, Seed: 1, Scale: 1.0, Workers: 1}
}

// Engine builds the figure sweeps' engine configured by the options. It is
// fail-fast: a broken workload aborts the rest of its matrix instead of
// simulating every remaining cell first.
func (o Options) Engine() *sweep.Engine {
	return &sweep.Engine{
		Workers: o.Workers, Sinks: o.Sinks, FailFast: true,
		Reuse: o.Reuse, InputMode: o.Inputs, SnapshotMode: o.Snapshots,
		Inputs: o.InputArena, Snapshots: o.SnapshotArena, Machines: o.MachinePool,
		Memo: o.Memo, Metrics: o.Metrics,
	}
}

// Oracle translates the options into the conformance-oracle configuration.
func (o Options) Oracle() sweep.OracleOptions {
	return sweep.OracleOptions{
		Workers:       o.Workers,
		Reuse:         o.Reuse,
		InputMode:     o.Inputs,
		Snapshots:     o.Snapshots,
		InputArena:    o.InputArena,
		SnapshotArena: o.SnapshotArena,
		MachinePool:   o.MachinePool,
		DetSample:     o.DetSample,
		DetSampleSeed: o.DetSampleSeed,
		Sinks:         o.Sinks,
		Metrics:       o.Metrics,
	}
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// ScaledOps exposes input scaling to workload constructors.
func (o Options) ScaledOps(n int) int { return o.scaled(n) }

var registry = map[string]Experiment{}

// Register adds an experiment; duplicate ids panic (registration bug).
func Register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns a registered experiment.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
