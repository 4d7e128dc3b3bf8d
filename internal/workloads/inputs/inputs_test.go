package inputs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(i int) Key { return Key{Kind: "k", Params: fmt.Sprintf("p=%d", i), Seed: 1} }

func TestLoadCachesByKey(t *testing.T) {
	a := New()
	gens := 0
	gen := func() int { gens++; return 42 }
	if got := Load(a, key(1), gen); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if got := Load(a, key(1), gen); got != 42 {
		t.Fatalf("second Load = %d, want 42", got)
	}
	if gens != 1 {
		t.Fatalf("generator ran %d times, want 1 (second Load must hit)", gens)
	}
	Load(a, key(2), gen)
	if gens != 2 {
		t.Fatalf("distinct key did not regenerate (gens=%d)", gens)
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / size 2", st)
	}
}

func TestNilArenaGeneratesFresh(t *testing.T) {
	gens := 0
	var a *Arena
	for i := 0; i < 3; i++ {
		Load(a, key(1), func() int { gens++; return gens })
	}
	if gens != 3 {
		t.Fatalf("nil arena generated %d times, want 3", gens)
	}
	if a.Len() != 0 || a.Stats() != (Stats{}) {
		t.Fatal("nil arena reported state")
	}
}

// TestConcurrentMissGeneratesOnce: misses are single-flighted per key —
// concurrent Loads run the generator exactly once, every racer blocks for
// and observes the owner's value.
func TestConcurrentMissGeneratesOnce(t *testing.T) {
	a := New()
	var gens atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = Load(a, key(1), func() int {
				gens.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times for one key, want 1 (singleflight)", n)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("racer %d observed %d, want 42", i, r)
		}
	}
	if st := a.Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 miss / 7 hits", st)
	}
}

// TestPanickingGeneratorUnpublishes: a generator panic must propagate to
// its caller but leave the arena usable — the pending entry is unpublished
// and waiters re-claim, so later Loads for the key regenerate instead of
// hanging forever on the dead owner's ready channel (which would wedge a
// whole sweep after one cell's Setup panic).
func TestPanickingGeneratorUnpublishes(t *testing.T) {
	a := New()
	boom := func() int { panic("generation failed") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("generator panic did not propagate")
			}
		}()
		Load(a, key(1), boom)
	}()
	if a.Len() != 0 {
		t.Fatalf("panicked entry still published: len=%d", a.Len())
	}

	// A waiter blocked on the in-flight entry at panic time must also
	// recover: it re-claims and generates its own value.
	entered := make(chan struct{})
	go func() {
		defer func() { recover() }() // the owner's panic dies with its cell
		Load(a, key(2), func() int {
			close(entered)
			time.Sleep(5 * time.Millisecond)
			panic("owner dies")
		})
	}()
	<-entered
	waiter := make(chan int, 1)
	go func() {
		waiter <- Load(a, key(2), func() int { return 7 })
	}()
	select {
	case v := <-waiter:
		if v != 7 {
			t.Fatalf("waiter regenerated %d, want 7", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung on the panicked owner's entry")
	}
	if got := Load(a, key(2), func() int { return 9 }); got != 7 {
		t.Fatalf("later Load = %d, want the waiter's cached 7", got)
	}
}
