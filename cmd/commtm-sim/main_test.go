package main

import "testing"

func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		workload string
		threads  int
		ops      int
		opsSet   bool
		ok       bool
	}{
		{"counter", 16, 30000, false, true},
		{"counter", 16, 1, true, true},
		{"ssca2", 8, 500, true, true},
		{"genome", 8, 500, true, true},
		{"vacation", 8, 500, true, true},
		{"kmeans", 4, 30000, false, true}, // the default -ops is not a request
		{"boruvka", 4, 30000, false, true},
		{"kmeans", 4, 1, true, false},
		{"boruvka", 4, 999999, true, false},
		{"counter", 0, 100, false, false},
		{"counter", 129, 100, false, false},
		{"counter", 16, 0, true, false},
	} {
		err := checkSizes(tc.workload, tc.threads, tc.ops, tc.opsSet)
		if (err == nil) != tc.ok {
			t.Errorf("checkSizes(%q, threads=%d, ops=%d, opsSet=%v) = %v, want ok=%v",
				tc.workload, tc.threads, tc.ops, tc.opsSet, err, tc.ok)
		}
	}
}
