// Command commtm-sim runs a single workload on a single machine
// configuration and prints the full statistics block — the tool for
// exploring one simulation in detail (the sweep harness is commtm-bench).
//
// Usage:
//
//	commtm-sim -workload counter -threads 32 -protocol commtm -ops 50000
package main

import (
	"flag"
	"fmt"
	"os"

	"commtm"
	"commtm/internal/harness"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
)

func main() {
	var (
		name    = flag.String("workload", "counter", "counter|refcount|list-enq|list-mixed|oput|topk|boruvka|kmeans|ssca2|genome|vacation")
		threads = flag.Int("threads", 16, "hardware threads (1-128)")
		proto   = flag.String("protocol", "commtm", "commtm|baseline|commtm-nogather")
		ops     = flag.Int("ops", 30000, "operation count (micro workloads)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	// Out-of-range sizes are usage errors, reported before anything runs:
	// a thread count the machine cannot build would otherwise fail as a
	// "validation" error, and zero ops prints an all-zero table.
	if *threads < 1 || *threads > commtm.MaxThreads {
		usage(fmt.Sprintf("bad -threads %d (want 1..%d)", *threads, commtm.MaxThreads))
	}
	if *ops < 1 {
		usage(fmt.Sprintf("bad -ops %d (want at least 1)", *ops))
	}

	spec := func(name string, mk func() harness.Workload) harness.Spec {
		return harness.Spec{Name: name, Mk: mk}
	}
	mks := map[string]harness.Spec{
		"counter":    spec(micro.CounterName, func() harness.Workload { return micro.NewCounter(*ops) }),
		"refcount":   spec(micro.RefcountName, func() harness.Workload { return micro.NewRefcount(*ops, 16) }),
		"list-enq":   spec(micro.ListName(0), func() harness.Workload { return micro.NewList(*ops, 0) }),
		"list-mixed": spec(micro.ListName(0.5), func() harness.Workload { return micro.NewList(*ops, 0.5) }),
		"oput":       spec(micro.OPutName, func() harness.Workload { return micro.NewOPut(*ops) }),
		"topk":       spec(micro.TopKName, func() harness.Workload { return micro.NewTopK(*ops, 1000) }),
		"boruvka":    spec(apps.BoruvkaName, func() harness.Workload { return apps.NewBoruvka(36, 36, 0.7, *seed) }),
		"kmeans":     spec(apps.KMeansName, func() harness.Workload { return apps.NewKMeans(2048, 8, 12, 3, *seed) }),
		"ssca2":      spec(apps.SSCA2Name, func() harness.Workload { return apps.NewSSCA2(13, *ops, *seed) }),
		"genome":     spec(apps.GenomeName, func() harness.Workload { return apps.NewGenome(512, 32, *ops, *seed) }),
		"vacation":   spec(apps.VacationName, func() harness.Workload { return apps.NewVacation(1024, 256, *ops, 4, *seed) }),
	}
	mk, ok := mks[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	variants := map[string]harness.Variant{
		"commtm":          harness.VarCommTM,
		"baseline":        harness.VarBaseline,
		"commtm-nogather": harness.VarCommTMNoGather,
	}
	v, ok := variants[*proto]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		os.Exit(2)
	}
	st, err := harness.RunOne(mk, v, *threads, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "validation failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s protocol=%s threads=%d seed=%d\n", *name, v.Label, *threads, *seed)
	fmt.Printf("cycles            %12d\n", st.Cycles)
	fmt.Printf("total core cycles %12d\n", st.TotalCoreCycles)
	fmt.Printf("  non-tx          %12d\n", st.NonTxCycles)
	fmt.Printf("  committed       %12d\n", st.CommittedCycles)
	fmt.Printf("  wasted          %12d  (RaW %d / WaR %d / gather %d / other %d)\n",
		st.WastedCycles, st.WastedReadAfterWrite, st.WastedWriteAfterRead, st.WastedGather, st.WastedOther)
	fmt.Printf("commits %d aborts %d (abort rate %.1f%%)  NACKs %d\n",
		st.Commits, st.Aborts, 100*st.AbortRate(), st.NACKs)
	fmt.Printf("GETS %d GETX %d GETU %d | reductions %d gathers %d splits %d\n",
		st.GETS, st.GETX, st.GETU, st.Reductions, st.Gathers, st.Splits)
	fmt.Printf("labeled ops %d / %d instructions (%.4f%%)\n",
		st.LabeledOps, st.Instructions, 100*st.LabeledFraction())
}

// usage reports a bad flag value with the flag summary and exits 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}
