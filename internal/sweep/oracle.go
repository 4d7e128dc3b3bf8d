// Differential conformance and determinism oracles.
//
// The differential oracle applies the commutativity-checking discipline of
// Koskinen & Bansal (PAPERS.md) as a test oracle: the baseline HTM, CommTM,
// and CommTM-without-gather are three schedules of the same commutative
// program, so for every (workload, threads, seed, geometry) configuration
// all protocol variants must pass the workload's own validation AND agree
// on a canonical digest of the semantic final state. The determinism oracle
// asserts the simulator's bit-exactness claim: re-running any cell with the
// same seed must reproduce identical Stats and digest (the engine schedules
// exactly one runnable core at a time, so nothing may vary).
package sweep

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"commtm/internal/workloads/inputs"
)

// groupKey identifies one conformance group: every variant of a fixed
// (workload, threads, seed, geometry) configuration.
type groupKey struct {
	workload string
	threads  int
	seed     uint64
	geometry Geometry
}

func (k groupKey) String() string {
	s := fmt.Sprintf("%s/%dt/seed=%d", k.workload, k.threads, k.seed)
	if !k.geometry.IsDefault() {
		s += "/" + k.geometry.Label
	}
	return s
}

// CheckDifferential verifies that within every conformance group all
// variants validated and digested identically. It returns an error
// describing every violating group, not just the first.
func CheckDifferential(rs Results) error {
	groups := make(map[groupKey][]Result)
	var order []groupKey
	for _, r := range rs {
		k := groupKey{r.Workload, r.Threads, r.Seed, r.Geometry}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(order, func(i, j int) bool { return groups[order[i]][0].Index < groups[order[j]][0].Index })

	var errs []error
	for _, k := range order {
		g := groups[k]
		var digests []string
		for _, r := range g {
			if r.Err != "" {
				errs = append(errs, fmt.Errorf("%s [%s]: %s", k, r.Variant.Label, r.Err))
				continue
			}
			digests = append(digests, r.Variant.Label+"="+r.Digest)
		}
		if len(digests) < 2 {
			continue // nothing to compare (single variant or all failed)
		}
		first := digests[0][strings.IndexByte(digests[0], '=')+1:]
		agree := true
		for _, d := range digests[1:] {
			if d[strings.IndexByte(d, '=')+1:] != first {
				agree = false
				break
			}
		}
		if !agree {
			errs = append(errs, fmt.Errorf("%s: variants diverge: %s", k, strings.Join(digests, " ")))
		}
	}
	return errors.Join(errs...)
}

// DeterminismOptions configures the determinism oracle's re-run.
type DeterminismOptions struct {
	// Workers is the re-run pool width; <= 0 uses all host cores.
	Workers int
	// Reuse is the machine-lifecycle policy of the re-run engine.
	Reuse Reuse
	// InputMode is the workload-input arena policy of the re-run engine.
	// The re-run always builds its own arena (never shares the first run's
	// or a process-lifetime one): a warm arena would replay the first run's
	// cached inputs, and the oracle's whole point is an independent
	// re-execution — a nondeterministic generation must get a chance to
	// diverge.
	InputMode InputMode
	// Metrics, when non-nil, accumulates the re-run engine's host-side
	// lifecycle counters.
	Metrics *RunMetrics
	// Sample in (0, 1) re-runs only that fraction of passing cells,
	// hash-selected per cell key so the subset is stable for a given
	// SampleSeed and independent of matrix size or cell order. Any other
	// value, NaN included, re-runs every cell (full mode). Sampling keeps
	// oracle cost flat as matrices grow; any nondeterminism the engine could
	// exhibit (schedule leakage, shared state) would taint many cells, so a
	// stable random subset still catches it with high probability.
	Sample float64
	// SampleSeed perturbs the hash selection, letting CI rotate subsets.
	SampleSeed uint64
}

// sampled reports whether the cell with the given key is in the hash
// subset: an FNV-1a hash of the key, mixed with the seed, scaled to [0,1).
func (o DeterminismOptions) sampled(key string) bool {
	if !(o.Sample > 0 && o.Sample < 1) { // NaN fails both comparisons: full mode
		return true
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	for s := o.SampleSeed; s != 0; s >>= 8 {
		h ^= s & 0xff
		h *= prime64
	}
	// FNV diffuses upward too slowly for a threshold on the high bits (a
	// one-byte seed change only perturbs bits ~0-43); finish with a
	// splitmix64-style avalanche so every input bit reaches the top.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < o.Sample
}

// CheckDeterminism re-runs every cell of rs once (on the same worker pool
// width) and verifies bit-identical Stats and digest. Failed cells are
// skipped — the differential oracle already reports them.
func CheckDeterminism(rs Results, workers int) error {
	return CheckDeterminismOpts(rs, DeterminismOptions{Workers: workers})
}

// CheckDeterminismOpts is CheckDeterminism with an explicit re-run policy:
// lifecycle reuse for the re-run engine and optional hash-sampled cell
// selection (see DeterminismOptions.Sample).
func CheckDeterminismOpts(rs Results, o DeterminismOptions) error {
	cells := make([]Cell, 0, len(rs))
	for _, r := range rs {
		if r.Err == "" && o.sampled(r.Key()) {
			cells = append(cells, r.Cell)
		}
	}
	eng := Engine{
		Workers: o.Workers, Reuse: o.Reuse, InputMode: o.InputMode, Metrics: o.Metrics,
	}
	rerun, err := eng.Run(cells)
	if err != nil {
		return err
	}
	byIndex := make(map[int]Result, len(rs))
	for _, r := range rs {
		byIndex[r.Index] = r
	}
	var errs []error
	for _, b := range rerun {
		a := byIndex[b.Index]
		switch {
		case b.Err != "":
			errs = append(errs, fmt.Errorf("%s: passed first run, failed re-run: %s", b.Key(), b.Err))
		case a.Stats != b.Stats:
			errs = append(errs, fmt.Errorf("%s: Stats differ across identical re-runs:\n  first: %+v\n  rerun: %+v", b.Key(), a.Stats, b.Stats))
		case a.Digest != b.Digest:
			errs = append(errs, fmt.Errorf("%s: digest differs across identical re-runs: %s vs %s", b.Key(), a.Digest, b.Digest))
		}
	}
	return errors.Join(errs...)
}

// OracleOptions configures a Conformance run.
type OracleOptions struct {
	Workers int
	// Reuse is the lifecycle policy for both the first run and the
	// determinism re-run.
	Reuse Reuse
	// InputMode is the workload-input arena policy for both runs.
	InputMode InputMode
	// InputArena, when non-nil, is an externally owned input arena the FIRST
	// run uses (Engine.Inputs semantics). The determinism re-run never
	// inherits it (see DeterminismOptions.InputMode).
	InputArena *inputs.Arena
	// DetSample / DetSampleSeed select the determinism oracle's sampled
	// mode (DeterminismOptions.Sample semantics); zero means full.
	DetSample     float64
	DetSampleSeed uint64
	// IndexBase offsets every cell's Index, letting callers stream several
	// matrices to one sink without row-index collisions (indexes restart at
	// zero per matrix).
	IndexBase int
	Sinks     []Sink
	// Metrics, when non-nil, accumulates host-side lifecycle counters
	// across the first run and the determinism re-run.
	Metrics *RunMetrics
}

// Conformance expands the matrix, runs it, and applies both oracles. The
// first run streams to the given sinks (the determinism re-run does not —
// its results duplicate the first run's on success). It returns the
// first-run results (for reporting) along with the verdict.
func Conformance(mx Matrix, workers int, sinks ...Sink) (Results, error) {
	return ConformanceOpts(mx, OracleOptions{Workers: workers, Sinks: sinks})
}

// ConformanceOpts is Conformance with explicit lifecycle and determinism
// sampling policies.
func ConformanceOpts(mx Matrix, o OracleOptions) (Results, error) {
	eng := Engine{
		Workers: o.Workers, Sinks: o.Sinks, Reuse: o.Reuse, InputMode: o.InputMode,
		Inputs: o.InputArena, Metrics: o.Metrics,
	}
	cells := mx.Cells()
	for i := range cells {
		cells[i].Index += o.IndexBase
	}
	rs, err := eng.Run(cells)
	if err != nil {
		return rs, err
	}
	if err := CheckDifferential(rs); err != nil {
		return rs, fmt.Errorf("differential oracle:\n%w", err)
	}
	// The determinism re-run deliberately does NOT inherit the external
	// input arena the first run may share with the process: it must
	// re-execute generation independently (see DeterminismOptions.InputMode).
	det := DeterminismOptions{
		Workers: o.Workers, Reuse: o.Reuse, InputMode: o.InputMode,
		Metrics: o.Metrics, Sample: o.DetSample, SampleSeed: o.DetSampleSeed,
	}
	if err := CheckDeterminismOpts(rs, det); err != nil {
		return rs, fmt.Errorf("determinism oracle:\n%w", err)
	}
	return rs, nil
}

// Summary renders a one-paragraph human summary of a conformance run.
func Summary(rs Results) string {
	groups := make(map[groupKey]bool)
	var cells, failed int
	for _, r := range rs {
		groups[groupKey{r.Workload, r.Threads, r.Seed, r.Geometry}] = true
		cells++
		if r.Err != "" {
			failed++
		}
	}
	return fmt.Sprintf("%d cells in %d conformance groups, %d failed", cells, len(groups), failed)
}
