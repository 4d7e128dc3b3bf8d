package main

import (
	"math"
	"slices"
	"testing"
)

// TestParseSizes: a scale that is not finite and above 0, a thread list
// with a count outside 1..MaxThreads or a non-numeric one, or a negative
// -parallel is a usage error (main exits 2); valid values pass through.
func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		scale    float64
		threads  string
		parallel int
		want     []int
		bad      bool
	}{
		{scale: 1, want: nil},
		{scale: 0.25, threads: "1, 8,32", want: []int{1, 8, 32}},
		{scale: 1e-9, want: nil},
		{scale: 0, bad: true},
		{scale: -1, bad: true},
		{scale: math.NaN(), bad: true},
		{scale: math.Inf(1), bad: true},
		{scale: math.Inf(-1), bad: true},
		{scale: 1, threads: "0", bad: true},
		{scale: 1, threads: "8,-2", bad: true},
		{scale: 1, threads: "8,x", bad: true},
		{scale: 1, threads: "8,", bad: true},
		{scale: 1, threads: "1,128", want: []int{1, 128}},
		{scale: 1, threads: "129", bad: true},
		{scale: 1, threads: "8,1000", bad: true},
		{scale: 1, parallel: 4, want: nil},
		{scale: 1, parallel: -4, bad: true},
		{scale: 1, threads: "8", parallel: -1, bad: true},
	} {
		got, err := parseSizes(tc.scale, tc.threads, tc.parallel)
		if tc.bad {
			if err == nil {
				t.Errorf("parseSizes(%v, %q, %d) = %v, want an error", tc.scale, tc.threads, tc.parallel, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseSizes(%v, %q, %d) = %v, %v; want %v", tc.scale, tc.threads, tc.parallel, got, err, tc.want)
		}
	}
}
