package arena

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLoadCachesAndCounts(t *testing.T) {
	var a Arena[int, int]
	gens := 0
	gen := func() int { gens++; return 42 }
	if v, hit := a.Load(1, gen); v != 42 || hit {
		t.Fatalf("first load = %d hit=%v, want 42 miss", v, hit)
	}
	if v, hit := a.Load(1, gen); v != 42 || !hit {
		t.Fatalf("second load = %d hit=%v, want 42 hit", v, hit)
	}
	if gens != 1 {
		t.Fatalf("generator ran %d times, want 1", gens)
	}
	a.Load(2, gen)
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / size 2", st)
	}
	d := a.Stats().Delta(st)
	if d.Hits != 0 || d.Misses != 0 || d.Size != 2 {
		t.Fatalf("delta of identical readings = %+v", d)
	}
}

func TestNilArena(t *testing.T) {
	var a *Arena[int, int]
	gens := 0
	for i := 0; i < 2; i++ {
		if v, hit := a.Load(1, func() int { gens++; return 7 }); v != 7 || hit {
			t.Fatal("nil arena did not generate fresh")
		}
	}
	if gens != 2 {
		t.Fatalf("nil arena generated %d times, want 2", gens)
	}
	if _, ok := a.Get(1); ok {
		t.Fatal("nil arena Get reported ok")
	}
	if a.Remove(1) {
		t.Fatal("nil arena removed something")
	}
	a.RemoveAll()
	if a.Len() != 0 || a.Stats() != (Stats{}) || a.Contains(1) {
		t.Fatal("nil arena reported state")
	}
}

// TestConcurrentMissSingleflight: one generation per key regardless of
// racers, every racer observes the owner's value, and the stats record one
// miss plus one hit per racer — exactly one outcome per Load.
func TestConcurrentMissSingleflight(t *testing.T) {
	var a Arena[int, int]
	var gens atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := a.Load(1, func() int {
				gens.Add(1)
				<-release
				return 42
			})
			if v != 42 {
				t.Errorf("racer observed %d, want 42", v)
			}
		}()
	}
	for a.Stats().Misses == 0 {
	}
	close(release)
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	if st := a.Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 miss / 7 hits", st)
	}
}

// TestExactlyOneOutcomeOnOwnerPanic drives the owner-panic → waiter
// re-claim path and pins the accounting bug this core fixes: the old
// hand-rolled arenas counted a waiter's hit at claim time, so a waiter
// woken by a panicked owner re-claimed and counted a miss too — one Load
// incrementing both counters. Here the two Loads must count exactly two
// misses and zero hits: the panicked owner's miss, and the waiter's own
// miss when it re-claims and generates.
func TestExactlyOneOutcomeOnOwnerPanic(t *testing.T) {
	var a Arena[int, int]
	entered := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		defer func() { recover() }() // the owner's panic dies with its cell
		a.Load(1, func() int {
			close(entered)
			<-proceed
			panic("owner dies")
		})
	}()
	<-entered
	done := make(chan int, 1)
	go func() {
		v, _ := a.Load(1, func() int { return 7 })
		done <- v
	}()
	time.Sleep(5 * time.Millisecond) // let the second Load reach the wait
	close(proceed)
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("waiter regenerated %d, want 7", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung on the panicked owner's entry")
	}
	st := a.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly 2 misses / 0 hits (one outcome per Load)", st)
	}
	if st.Size != 1 {
		t.Fatalf("size = %d, want 1 (the waiter's regenerated entry)", st.Size)
	}
}

// TestPanicUnpublishes: a generator panic propagates but leaves the arena
// usable — the pending entry is unpublished so later Loads regenerate
// instead of hanging on the dead owner's ready channel.
func TestPanicUnpublishes(t *testing.T) {
	var a Arena[int, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("generator panic swallowed")
			}
		}()
		a.Load(1, func() int { panic("generation failed") })
	}()
	if a.Len() != 0 {
		t.Fatalf("abandoned entry still published: len=%d", a.Len())
	}
	if v, hit := a.Load(1, func() int { return 9 }); v != 9 || hit {
		t.Fatal("re-load after panic did not regenerate")
	}
}

// TestReleaseHookOutsideLock: a hook that re-enters the arena must not
// deadlock (the old input arena closed values while holding its mutex).
func TestReleaseHookOutsideLock(t *testing.T) {
	var a Arena[int, int]
	var reentered atomic.Bool
	a.OnRelease = func(k, _ int) {
		if _, ok := a.Get(k); ok { // re-enters the arena mutex
			t.Errorf("removed key %d still present", k)
		}
		_ = a.Stats()
		reentered.Store(true)
	}
	a.Load(1, func() int { return 1 })
	a.Load(2, func() int { return 2 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Remove(1)   // hook re-enters
		a.RemoveAll() // and again, for the bulk path
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("release hook deadlocked against the arena lock")
	}
	if !reentered.Load() {
		t.Fatal("release hook did not run")
	}
}

// TestRemoveSemantics: Remove takes settled entries and runs the hook;
// pending entries are not removable; RemoveAll empties the arena.
func TestRemoveSemantics(t *testing.T) {
	var a Arena[int, int]
	removed := 0
	a.OnRelease = func(int, int) { removed++ }
	if a.Remove(1) {
		t.Fatal("removed an absent key")
	}
	a.Load(1, func() int { return 1 })
	if !a.Remove(1) {
		t.Fatal("settled entry not removable")
	}
	if removed != 1 || a.Contains(1) {
		t.Fatalf("after remove: hooks=%d contains=%v", removed, a.Contains(1))
	}
	entered := make(chan struct{})
	proceed := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		a.Load(2, func() int { close(entered); <-proceed; return 2 })
	}()
	<-entered
	if a.Remove(2) {
		t.Fatal("pending entry removed from under its owner")
	}
	close(proceed)
	<-finished
	a.Load(3, func() int { return 3 })
	a.RemoveAll()
	if a.Len() != 0 || removed != 3 {
		t.Fatalf("after RemoveAll: len=%d hooks=%d, want 0 and 3", a.Len(), removed)
	}
}

// TestGetFastPath: Get returns settled values (counting a hit) and reports
// ok=false for absent or in-flight entries (counting nothing).
func TestGetFastPath(t *testing.T) {
	var a Arena[int, int]
	if _, ok := a.Get(1); ok {
		t.Fatal("Get hit an absent key")
	}
	if st := a.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Get on absent key counted: %+v", st)
	}
	a.Load(1, func() int { return 42 })
	v, ok := a.Get(1)
	if !ok || v != 42 {
		t.Fatalf("Get = %d ok=%v, want 42 true", v, ok)
	}
	if st := a.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	entered := make(chan struct{})
	proceed := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		a.Load(2, func() int { close(entered); <-proceed; return 2 })
	}()
	<-entered
	if _, ok := a.Get(2); ok {
		t.Fatal("Get returned an in-flight entry")
	}
	close(proceed)
	<-finished
}

// FuzzArena churns a small arena from several goroutines with every public
// operation — Load (some generations panic), Get, Remove, RemoveAll — under
// a fuzzed key range, then checks the structural invariants: the Size gauge
// matches Len, RemoveAll empties the arena, and every value that ever
// settled is released by exactly one hook call (no leak, no double-close).
// Wired into the CI fuzz smoke.
func FuzzArena(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, keysB uint8) {
		keys := int(keysB%16) + 1 // 1..16
		var a Arena[int, int]
		var released, settled atomic.Int64
		a.OnRelease = func(_, _ int) { released.Add(1) }
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := seed*0x9e3779b97f4a7c15 + uint64(w) + 1
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				for i := 0; i < 200; i++ {
					k := int(next() % uint64(keys))
					switch next() % 16 {
					case 0, 1: // generation that may panic
						boom := next()%2 == 0
						func() {
							defer func() { recover() }()
							a.Load(k, func() int {
								if boom {
									panic("generation failed")
								}
								settled.Add(1)
								return k
							})
						}()
					case 2, 3:
						a.Remove(k)
					case 4:
						a.RemoveAll()
					case 5, 6:
						if v, ok := a.Get(k); ok && v != k {
							t.Errorf("Get(%d) = %d", k, v)
						}
					default:
						v, _ := a.Load(k, func() int { settled.Add(1); return k })
						if v != k {
							t.Errorf("Load(%d) = %d", k, v)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if st := a.Stats(); st.Size != a.Len() || st.Size > keys {
			t.Errorf("Size gauge %d, Len %d, keys %d", st.Size, a.Len(), keys)
		}
		a.RemoveAll()
		if a.Len() != 0 {
			t.Errorf("RemoveAll left %d entries", a.Len())
		}
		// Exactly-once release: every settled value left through exactly one
		// hook call (Remove, or a RemoveAll).
		if released.Load() != settled.Load() {
			t.Errorf("released %d values, settled %d — leak or double-release", released.Load(), settled.Load())
		}
	})
}
