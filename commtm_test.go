package commtm

import (
	"testing"
	"testing/quick"

	"commtm/internal/noc"
)

// runCounter increments a shared counter n times per thread and returns the
// machine and final value.
func runCounter(t *testing.T, cfg Config, perThread int) (*Machine, uint64) {
	t.Helper()
	m := New(cfg)
	add := m.DefineLabel(AddLabel("ADD"))
	ctr := m.AllocWords(1)
	m.Run(func(th *Thread) {
		for i := 0; i < perThread; i++ {
			th.Txn(func() {
				v := th.LoadL(ctr, add)
				th.StoreL(ctr, add, v+1)
			})
		}
	})
	return m, m.MemRead64(ctr)
}

func TestCounterBothProtocolsCorrect(t *testing.T) {
	for _, proto := range []Protocol{Baseline, CommTM} {
		for _, threads := range []int{1, 2, 4, 8} {
			m, got := runCounter(t, Config{Threads: threads, Protocol: proto, Seed: 42}, 50)
			want := uint64(threads * 50)
			if got != want {
				t.Errorf("%v @%d threads: counter = %d, want %d", proto, threads, got, want)
			}
			s := m.Stats()
			if s.Commits != uint64(threads*50) {
				t.Errorf("%v @%d threads: commits = %d, want %d", proto, threads, s.Commits, threads*50)
			}
		}
	}
}

func TestCommTMAvoidsCounterConflicts(t *testing.T) {
	base, _ := runCounter(t, Config{Threads: 8, Protocol: Baseline, Seed: 1}, 100)
	comm, _ := runCounter(t, Config{Threads: 8, Protocol: CommTM, Seed: 1}, 100)
	bs, cs := base.Stats(), comm.Stats()
	if bs.Aborts == 0 {
		t.Error("baseline counter at 8 threads produced no aborts")
	}
	if cs.Aborts != 0 {
		t.Errorf("CommTM counter produced %d aborts, want 0", cs.Aborts)
	}
	if cs.Cycles >= bs.Cycles {
		t.Errorf("CommTM (%d cycles) not faster than baseline (%d cycles)", cs.Cycles, bs.Cycles)
	}
	if cs.GETU == 0 || bs.GETU != 0 {
		t.Errorf("GETU: commtm=%d (want >0), baseline=%d (want 0)", cs.GETU, bs.GETU)
	}
}

func TestCommTMScalesCounter(t *testing.T) {
	m1, _ := runCounter(t, Config{Threads: 1, Protocol: CommTM, Seed: 3}, 200)
	m8, _ := runCounter(t, Config{Threads: 8, Protocol: CommTM, Seed: 3}, 200)
	c1, c8 := m1.Stats().Cycles, m8.Stats().Cycles
	// 8 threads do 8x the work; near-linear scaling keeps region length
	// roughly flat. Allow generous slack for cold misses.
	if c8 > c1*2 {
		t.Errorf("8-thread region %d cycles vs 1-thread %d: not scaling", c8, c1)
	}
}

func TestDeterministicRuns(t *testing.T) {
	m1, v1 := runCounter(t, Config{Threads: 4, Protocol: Baseline, Seed: 7}, 50)
	m2, v2 := runCounter(t, Config{Threads: 4, Protocol: Baseline, Seed: 7}, 50)
	if v1 != v2 {
		t.Fatalf("values differ: %d vs %d", v1, v2)
	}
	s1, s2 := m1.Stats(), m2.Stats()
	if s1 != s2 {
		t.Fatalf("same-seed stats differ:\n%+v\n%+v", s1, s2)
	}
	m3, _ := runCounter(t, Config{Threads: 4, Protocol: Baseline, Seed: 8}, 50)
	if m3.Stats() == s1 {
		t.Log("note: different seeds produced identical stats (possible but unlikely)")
	}
}

func TestReadYourOwnLabeledWritesDemotes(t *testing.T) {
	// A transaction that labeled-updates then plain-reads the same data
	// must abort once, retry demoted, and still be correct.
	m := New(Config{Threads: 4, Protocol: CommTM, Seed: 5})
	add := m.DefineLabel(AddLabel("ADD"))
	ctr := m.AllocWords(1)
	m.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Txn(func() {
				v := th.LoadL(ctr, add)
				th.StoreL(ctr, add, v+1)
				_ = th.Load64(ctr) // unlabeled read of own labeled data
			})
		}
	})
	want := uint64(40)
	if got := m.MemRead64(ctr); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestNonNegativeCounterNeverGoesNegative(t *testing.T) {
	// The bounded counter of Sec. IV: decrement only when positive, using
	// gathers. The invariant must hold under both protocols.
	for _, proto := range []Protocol{Baseline, CommTM} {
		m := New(Config{Threads: 8, Protocol: proto, Seed: 11})
		add := m.DefineLabel(AddLabel("ADD"))
		ctr := m.AllocWords(1)
		m.MemWrite64(ctr, 40) // initial credit
		var succeeded, failed [8]uint64
		m.Run(func(th *Thread) {
			rng := th.Rand()
			for i := 0; i < 30; i++ {
				if rng.Intn(2) == 0 { // increment
					th.Txn(func() {
						v := th.LoadL(ctr, add)
						th.StoreL(ctr, add, v+1)
					})
					succeeded[th.ID()]++
					continue
				}
				ok := false
				th.Txn(func() {
					ok = false
					v := th.LoadL(ctr, add)
					if v == 0 {
						v = th.LoadGather(ctr, add)
						if v == 0 {
							v = th.Load64(ctr)
							if v == 0 {
								return
							}
						}
					}
					th.StoreL(ctr, add, v-1)
					ok = true
				})
				if ok {
					failed[th.ID()]++ // "failed" here counts decrements
				}
			}
		})
		var incs, decs uint64
		for i := range succeeded {
			incs += succeeded[i]
			decs += failed[i]
		}
		want := 40 + incs - decs
		if got := m.MemRead64(ctr); got != want {
			t.Errorf("%v: counter = %d, want %d (incs=%d decs=%d)", proto, got, want, incs, decs)
		}
		if int64(want) < 0 {
			t.Errorf("%v: counter went negative", proto)
		}
	}
}

func TestMinMaxOPutLabels(t *testing.T) {
	m := New(Config{Threads: 4, Protocol: CommTM, Seed: 13})
	minL := m.DefineLabel(MinLabel("MIN"))
	maxL := m.DefineLabel(MaxLabel("MAX"))
	oput := m.DefineLabel(OPutLabel("OPUT"))
	amin := m.AllocLines(1)
	amax := m.AllocLines(1)
	aput := m.AllocLines(1)
	m.MemWrite64(amin, ^uint64(0))
	m.MemWrite64(aput, ^uint64(0))
	m.Run(func(th *Thread) {
		rng := th.Rand()
		for i := 0; i < 50; i++ {
			k := rng.Uint64n(1_000_000)
			th.Txn(func() {
				if v := th.LoadL(amin, minL); k < v {
					th.StoreL(amin, minL, k)
				}
			})
			th.Txn(func() {
				if v := th.LoadL(amax, maxL); k > v {
					th.StoreL(amax, maxL, k)
				}
			})
			th.Txn(func() {
				if cur := th.LoadL(aput, oput); k < cur {
					th.StoreL(aput, oput, k)
					th.StoreL(aput+8, oput, k*2) // value word
				}
			})
		}
	})
	gmin, gmax := m.MemRead64(amin), m.MemRead64(amax)
	pk, pv := m.MemRead64(aput), m.MemRead64(aput+8)
	if gmin > gmax {
		t.Fatalf("min %d > max %d", gmin, gmax)
	}
	if pk != gmin {
		t.Errorf("oput key = %d, want global min %d", pk, gmin)
	}
	if pv != pk*2 {
		t.Errorf("oput value = %d, want %d (pair must stay consistent)", pv, pk*2)
	}
}

func TestStatsBreakdownConsistent(t *testing.T) {
	m, _ := runCounter(t, Config{Threads: 8, Protocol: Baseline, Seed: 17}, 60)
	s := m.Stats()
	if s.NonTxCycles+s.CommittedCycles+s.WastedCycles != s.TotalCoreCycles {
		t.Errorf("cycle breakdown does not sum: %d+%d+%d != %d",
			s.NonTxCycles, s.CommittedCycles, s.WastedCycles, s.TotalCoreCycles)
	}
	wasted := s.WastedReadAfterWrite + s.WastedWriteAfterRead + s.WastedGather + s.WastedOther
	if wasted != s.WastedCycles {
		t.Errorf("wasted breakdown does not sum: %d != %d", wasted, s.WastedCycles)
	}
	if s.Aborts > 0 && s.WastedCycles == 0 {
		t.Error("aborts recorded but no wasted cycles")
	}
	if s.LabeledFraction() <= 0 {
		t.Error("labeled ops were issued but fraction is zero")
	}
	if s.Cycles == 0 || s.TotalCoreCycles < s.Cycles {
		t.Errorf("region cycles %d inconsistent with total %d", s.Cycles, s.TotalCoreCycles)
	}
}

func TestBarrierPhases(t *testing.T) {
	m := New(Config{Threads: 4, Protocol: CommTM, Seed: 19})
	add := m.DefineLabel(AddLabel("ADD"))
	ctr := m.AllocWords(1)
	total := m.AllocWords(1)
	m.Run(func(th *Thread) {
		for round := 0; round < 3; round++ {
			th.Txn(func() {
				v := th.LoadL(ctr, add)
				th.StoreL(ctr, add, v+1)
			})
			th.Barrier()
			if th.ID() == 0 {
				// Sequential phase: read (reduces) and accumulate.
				v := th.Load64(ctr)
				th.Store64(ctr, 0)
				th.Store64(total, th.Load64(total)+v)
			}
			th.Barrier()
		}
	})
	if got := m.MemRead64(total); got != 12 {
		t.Fatalf("total = %d, want 12", got)
	}
}

// Property: arbitrary mixes of commutative adds and occasional plain reads
// from concurrent transactional threads preserve the sequential total under
// both protocols.
func TestTransactionalAddsProperty(t *testing.T) {
	g := func(seed uint64, protoBit bool, opsRaw uint8) bool {
		proto := Baseline
		if protoBit {
			proto = CommTM
		}
		ops := int(opsRaw)%40 + 1
		m := New(Config{Threads: 4, Protocol: proto, Seed: seed})
		add := m.DefineLabel(AddLabel("ADD"))
		ctr := m.AllocWords(1)
		var incs [4]uint64
		m.Run(func(th *Thread) {
			rng := th.Rand()
			for i := 0; i < ops; i++ {
				if rng.Intn(8) == 0 {
					th.Txn(func() { _ = th.Load64(ctr) })
					continue
				}
				th.Txn(func() {
					v := th.LoadL(ctr, add)
					th.StoreL(ctr, add, v+1)
				})
				incs[th.ID()]++
			}
		})
		want := incs[0] + incs[1] + incs[2] + incs[3]
		return m.MemRead64(ctr) == want
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 129} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Threads=%d did not panic", bad)
				}
			}()
			New(Config{Threads: bad})
		}()
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(Config{Threads: 1, Protocol: CommTM})
	m.Run(func(th *Thread) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(func(th *Thread) {})
}

// TestMaxThreadsMatchesMesh: the thread limit New enforces (and the CLIs
// check up front) is one thread per core of the mesh every machine runs on.
func TestMaxThreadsMatchesMesh(t *testing.T) {
	if got := noc.Default4x4().Cores(); MaxThreads != got {
		t.Fatalf("MaxThreads = %d, but the default mesh has %d cores", MaxThreads, got)
	}
}
