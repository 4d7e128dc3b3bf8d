//go:build !race

// Allocation-regression tests for the machine lifecycle. AllocsPerRun
// numbers are meaningless under the race detector (it instruments
// allocations), so this file is excluded from -race runs; CI runs it in a
// dedicated no-race step next to the bench smoke step.
package commtm_test

import (
	"runtime"
	"testing"

	"commtm"
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/inputs"
	"commtm/internal/workloads/micro"
)

// TestResetIsAllocationFree asserts the core steady-state property of the
// lifecycle: Reset itself never allocates — the cache sets written since the
// last Reset are cleared in place (the list of them keeps its capacity),
// store/directory pages are invalidated by generation stamp, PRNGs
// reseed in place. Any allocation here is a regression that reintroduces
// per-cell GC pressure in sweep workers.
func TestResetIsAllocationFree(t *testing.T) {
	m := commtm.New(commtm.Config{Threads: 8, Protocol: commtm.CommTM, Seed: 1})
	runWorkload(m, micro.NewCounter(500)) // populate caches, store, directory
	if allocs := testing.AllocsPerRun(100, m.Reset); allocs != 0 {
		t.Errorf("Machine.Reset allocates %.1f objects per call, want 0", allocs)
	}
}

// TestLayerResetsAllocationFree pins the per-layer contract the machine
// Reset composes: no layer's reset path may allocate.
func TestLayerResetsAllocationFree(t *testing.T) {
	m := commtm.New(commtm.Config{Threads: 2, Protocol: commtm.CommTM, Seed: 1})
	runWorkload(m, micro.NewOPut(300))
	if allocs := testing.AllocsPerRun(100, func() { m.ResetSeed(42) }); allocs != 0 {
		t.Errorf("Machine.ResetSeed allocates %.1f objects per call, want 0", allocs)
	}
}

// TestReuseCutsPerCellAllocations asserts the machine-reuse win end to end:
// running a cell on a Reset machine must allocate at least 5x fewer objects
// than building a fresh machine for it (the acceptance bar recorded in
// BENCH_lifecycle.json). The margin is intentionally the bar itself — the
// measured ratio is far higher — so genuine regressions trip it before the
// benefit is gone.
func TestReuseCutsPerCellAllocations(t *testing.T) {
	cell := sweep.Cell{
		Workload: "counter",
		Variant:  sweep.Variant{Label: "CommTM", Protocol: commtm.CommTM},
		Threads:  8,
		Seed:     1,
		Mk:       func() sweep.Workload { return micro.NewCounter(500) },
	}
	cfg := cell.Config()

	fresh := testing.AllocsPerRun(5, func() {
		m := commtm.New(cfg)
		w := micro.NewCounter(500)
		w.Setup(m)
		m.Run(w.Body)
		if err := w.Validate(m); err != nil {
			t.Fatal(err)
		}
	})

	m := commtm.New(cfg)
	runWorkload(m, micro.NewCounter(500)) // steady state: the machine runs warm
	reused := testing.AllocsPerRun(5, func() {
		m.Reset()
		w := micro.NewCounter(500)
		w.Setup(m)
		m.Run(w.Body)
		if err := w.Validate(m); err != nil {
			t.Fatal(err)
		}
	})

	if reused*5 > fresh {
		t.Errorf("reused-machine cell allocates %.0f objects vs %.0f fresh; want >= 5x reduction", reused, fresh)
	}
	t.Logf("allocs per cell: fresh=%.0f reused=%.0f (%.1fx reduction)", fresh, reused, fresh/reused)
}

// allocBytesPerRun measures average allocated bytes per call of f —
// testing.AllocsPerRun's byte-granularity sibling. Generation allocates few
// but large objects (an edge list is one slice), so object counts undersell
// the input-arena win; bytes are the honest unit.
func allocBytesPerRun(runs int, f func()) float64 {
	f() // warm up outside the window
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestInputArenaCutsWorkloadAllocations asserts the input-arena win: with
// the machine held constant (Reset-reused, the PR-3 contract), the workload
// input path of a repeated cell — construct + Setup, i.e. generation versus
// replay — must allocate at least 5x less with a warm input arena than with
// fresh generation, for each generation-heavy application. Body-side
// allocations (per-transaction closures, per-round bookkeeping) are
// deliberately outside the window: the arena does not touch them, and
// folding them in would let unrelated regressions mask an input-path one.
// BENCH_inputs.json records these ratios plus whole-cell numbers.
func TestInputArenaCutsWorkloadAllocations(t *testing.T) {
	cases := []struct {
		name string
		mk   func() harness.Workload
	}{
		// The generation-heavy apps: graph construction plus a reference
		// solution (degree counts, Kruskal MST, k-means iterations) per cell.
		{apps.SSCA2Name, func() harness.Workload { return apps.NewSSCA2(10, 3000, 1) }},
		{apps.BoruvkaName, func() harness.Workload { return apps.NewBoruvka(16, 16, 0.7, 1) }},
		{apps.KMeansName, func() harness.Workload { return apps.NewKMeans(512, 8, 12, 3, 1) }},
		{apps.GenomeName, func() harness.Workload { return apps.NewGenome(512, 32, 3000, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := commtm.Config{Threads: 4, Protocol: commtm.CommTM, Seed: 1}
			m := commtm.New(cfg)
			defer m.Close()

			setup := func(a *inputs.Arena) {
				m.Reset()
				w := tc.mk()
				if u, ok := w.(inputs.User); ok {
					u.UseInputs(a)
				} else {
					t.Fatal("workload does not take input arenas")
				}
				w.Setup(m)
			}
			fresh := allocBytesPerRun(10, func() { setup(nil) })

			a := inputs.New()
			cached := allocBytesPerRun(10, func() { setup(a) })

			if cached*5 > fresh {
				t.Errorf("cached-input setup allocates %.0f bytes vs %.0f fresh; want >= 5x reduction", cached, fresh)
			}
			t.Logf("input-path alloc bytes per cell: fresh=%.0f cached=%.0f (%.1fx reduction)", fresh, cached, fresh/cached)
		})
	}
}

// TestInputArenaHitPathZeroAllocs pins the warm-arena fast path to exactly
// zero allocations per hit: a settled entry is returned through Arena.Get
// without boxing a generator closure, so sweeps replaying a cached input pay
// a map lookup and nothing else. Any allocation here means the fast path
// regressed to the singleflight slow path (closure boxing, interface churn)
// and per-hit GC pressure is back.
func TestInputArenaHitPathZeroAllocs(t *testing.T) {
	a := inputs.New()
	k := inputs.Key{Kind: "alloc-gate-blob", Params: "n=4096", Seed: 1}
	gen := func() []int { return make([]int, 4096) }
	if v := inputs.Load(a, k, gen); len(v) != 4096 { // warm: the only miss
		t.Fatalf("warm load returned %d elements, want 4096", len(v))
	}
	wrong := false
	allocs := testing.AllocsPerRun(100, func() {
		if len(inputs.Load(a, k, gen)) != 4096 {
			wrong = true
		}
	})
	if wrong {
		t.Errorf("hit path returned a wrong-shaped value")
	}
	if allocs != 0 {
		t.Errorf("input-arena hit path allocates %.1f objects per load, want 0", allocs)
	}
	if st := a.Stats(); st.Misses != 1 || st.Hits == 0 {
		t.Errorf("hit-path measurement did not run warm: %+v", st)
	}
}

// TestInputArenaReplayKeepsValidating guards the measurement above from
// rot: the same construct+Setup cycle it times must still produce cells
// that run and validate on both the fresh and replay paths.
func TestInputArenaReplayKeepsValidating(t *testing.T) {
	a := inputs.New()
	for _, mk := range []func() harness.Workload{
		func() harness.Workload { return apps.NewSSCA2(8, 800, 1) },
		func() harness.Workload { return micro.NewTopK(600, 32) },
	} {
		for pass := 0; pass < 2; pass++ { // miss, then replay
			m := commtm.New(commtm.Config{Threads: 4, Protocol: commtm.CommTM, Seed: 1})
			w := mk()
			w.(inputs.User).UseInputs(a)
			w.Setup(m)
			m.Run(w.Body)
			if err := w.Validate(m); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			m.Close()
		}
	}
	if st := a.Stats(); st.Hits == 0 {
		t.Fatalf("replay pass never hit the arena: %+v", st)
	}
}
