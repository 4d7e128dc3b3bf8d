package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"commtm/internal/sweep"
)

// refSeed is the seed the recorded per-cell references were taken at.
const refSeed = 1

// reference is one workload's recorded per-cell outcome at refSeed: a
// compact fingerprint (hash of the simulated Stats, plus the final-state
// digest) keyed by cell identity.
type reference struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Cells    map[string]string `json:"cells"`
}

// fingerprint is a result's entry in a reference: any change to any
// simulated statistic or to the final state changes it.
func fingerprint(r sweep.Result) string {
	st, _ := json.Marshal(r.Stats) // plain struct of integers: cannot fail
	h := fnv.New64a()
	h.Write(st)
	return fmt.Sprintf("%016x:%s", h.Sum64(), r.Digest)
}

func refPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "reference", workload+".json")
}

// loadReference reads a workload's reference; a missing file yields nil
// (the gate then reports it and the run counts as incorrect).
func loadReference(root, workload string) (*reference, error) {
	b, err := os.ReadFile(refPath(root, workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", workload, err)
	}
	return &ref, nil
}

// writeReference records rows (keyed by keyOf) as a workload's reference.
func writeReference(root, workload string, rows []sweep.Result, keyOf func(int) string) error {
	ref := reference{Workload: workload, Seed: refSeed, Cells: make(map[string]string, len(rows))}
	for i, r := range rows {
		ref.Cells[keyOf(i)] = fingerprint(r)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(refPath(root, workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(root, workload), append(b, '\n'), 0o644)
}

// verdicts marks the failed cells of one pass. A cell fails if it reports
// an error, or — when ref is non-nil — if its fingerprint differs from or is
// missing in the reference. Reference cells the pass never produced are
// returned as missing; they count as failures too.
func verdicts(rows []sweep.Result, keyOf func(int) string, ref *reference) (bad []bool, missing int) {
	bad = make([]bool, len(rows))
	seen := make(map[string]bool, len(rows))
	for i, r := range rows {
		k := keyOf(i)
		seen[k] = true
		if r.Err != "" {
			bad[i] = true
			continue
		}
		if ref != nil && ref.Cells[k] != fingerprint(r) {
			bad[i] = true
		}
	}
	if ref != nil {
		for k := range ref.Cells {
			if !seen[k] {
				missing++
			}
		}
	}
	return bad, missing
}

// simDigest hashes every simulated outcome of a pass in order, so two
// commits (or two runs) can be compared exactly at any seed.
func simDigest(rows []sweep.Result, keyOf func(int) string) string {
	h := fnv.New64a()
	for i, r := range rows {
		fmt.Fprintf(h, "%s|%s\n", keyOf(i), fingerprint(r))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pairKey is what matches a Baseline cell with its CommTM twin.
type pairKey struct {
	group, workload, geometry string
	threads                   int
	seed                      uint64
}

// commtmSpeedup is the geometric mean of Baseline cycles over CommTM (with
// gather) cycles across matched cell pairs; group (nil = none) separates
// pairs that share a key but not their inputs, such as two experiments of
// the paper run. It returns the mean and the number of pairs.
func commtmSpeedup(rows []sweep.Result, group func(int) string) (float64, int) {
	base := map[pairKey]uint64{}
	comm := map[pairKey]uint64{}
	for i, r := range rows {
		k := pairKey{workload: r.Workload, geometry: r.Geometry.Label, threads: r.Threads, seed: r.Seed}
		if group != nil {
			k.group = group(i)
		}
		switch {
		case r.Err != "" || r.Stats.Cycles == 0:
		case r.Variant.Label == "Baseline":
			base[k] = r.Stats.Cycles
		case r.Variant.Label == "CommTM" && !r.Variant.DisableGather:
			comm[k] = r.Stats.Cycles
		}
	}
	sum, n := 0.0, 0
	for k, b := range base {
		if c, ok := comm[k]; ok {
			sum += math.Log(float64(b) / float64(c))
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(n)), n
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder the tail percentile is chosen from.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tail returns the highest percentile of the ladder that still has at least
// ten samples beyond it, its nearest-rank value, and how many samples lie
// beyond it. With fewer than twenty samples no rung qualifies; the median
// is returned with its (short) beyond count.
func tail(xs []float64) (pct, value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			pct = p
		}
	}
	r := rank(pct, n)
	return pct, s[r-1], n - r
}

// rank is the nearest-rank position (1-based) of percentile p among n.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 20000 is 19980, not 19981
	if r < 1 {
		r = 1
	}
	return r
}
