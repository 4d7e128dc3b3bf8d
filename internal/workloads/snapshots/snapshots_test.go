package snapshots

import (
	"sync"
	"sync/atomic"
	"testing"

	"commtm"
	"commtm/internal/workloads/apps"
)

func key(i int) Key {
	return Key{Workload: "w", Params: "p", Seed: uint64(i), Config: commtm.Config{Threads: 1}}
}

// capturedImage builds a real (tiny) machine image so the page pool has
// something to intern.
func capturedImage(t *testing.T, words int) *commtm.Image {
	t.Helper()
	m := commtm.New(commtm.Config{Threads: 1, Seed: 1})
	defer m.Close()
	a := m.AllocWords(words)
	for i := 0; i < words; i++ {
		m.MemWrite64(a+commtm.Addr(i*8), uint64(i)+1)
	}
	return m.Snapshot()
}

func TestArenaHitMissAndStats(t *testing.T) {
	a := New()
	img := capturedImage(t, 4)
	calls := 0
	gen := func() Entry { calls++; return Entry{Img: img, Host: "h"} }

	e1, hit1 := a.Load(key(1), gen)
	if hit1 || calls != 1 {
		t.Fatalf("first load: hit=%v calls=%d, want miss", hit1, calls)
	}
	e2, hit2 := a.Load(key(1), gen)
	if !hit2 || calls != 1 {
		t.Fatalf("second load: hit=%v calls=%d, want hit without recapture", hit2, calls)
	}
	if e1.Img != e2.Img || e2.Host != "h" {
		t.Fatal("hit returned a different entry")
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PagesInterned+st.PagesDeduped != uint64(img.Pages()) || st.PoolPages != img.Pages() {
		t.Fatalf("page pool: %+v, image pages %d (the capture interns each page once)", st, img.Pages())
	}
	d := a.Stats().Delta(st)
	if d.Hits != 0 || d.Misses != 0 || d.PagesInterned != 0 || d.Size != 1 {
		t.Fatalf("delta of identical readings = %+v", d)
	}
}

func TestArenaSingleFlight(t *testing.T) {
	a := New()
	img := capturedImage(t, 2)
	var captures atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Load(key(1), func() Entry {
				captures.Add(1)
				<-release
				return Entry{Img: img}
			})
		}()
	}
	// Let the owner start capturing, then release it; every waiter must get
	// the same entry without capturing.
	for a.Stats().Misses == 0 {
	}
	close(release)
	wg.Wait()
	if n := captures.Load(); n != 1 {
		t.Fatalf("capture ran %d times, want 1", n)
	}
	if st := a.Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats after concurrent loads: %+v", st)
	}
}

// TestArenaCapturePanicUnpublishes: a panicking capture must not wedge
// later loads of the same key (the sweep engine contains the panic per
// cell and the next cell re-attempts).
func TestArenaCapturePanicUnpublishes(t *testing.T) {
	a := New()
	img := capturedImage(t, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("capture panic swallowed")
			}
		}()
		a.Load(key(1), func() Entry { panic("setup failed") })
	}()
	if a.Len() != 0 {
		t.Fatalf("abandoned entry still published: len=%d", a.Len())
	}
	e, hit := a.Load(key(1), func() Entry { return Entry{Img: img} })
	if hit || e.Img != img {
		t.Fatal("re-load after panic did not re-capture")
	}
}

// TestNilArena: a nil arena is valid and always captures.
func TestNilArena(t *testing.T) {
	var a *Arena
	calls := 0
	for i := 0; i < 2; i++ {
		if _, hit := a.Load(key(1), func() Entry { calls++; return Entry{} }); hit {
			t.Fatal("nil arena reported a hit")
		}
	}
	if calls != 2 {
		t.Fatalf("nil arena captured %d times, want 2", calls)
	}
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("nil arena stats = %+v", st)
	}
	if a.Len() != 0 {
		t.Fatal("nil arena len != 0")
	}
}

// TestLoadSplitConcurrent drives the split path's nested singleflight from
// many goroutines at once: two cells per thread count, four thread counts,
// all sharing one base key. The base must be captured once (one Setup, one
// base miss), each full key's overlay once (the second cell of a thread
// count hits it), and every cell must still equal a machine that ran Setup
// itself at its own geometry.
func TestLoadSplitConcurrent(t *testing.T) {
	const seed = 7
	threads := []int{1, 2, 4, 8}
	const perKey = 2
	mk := func() *apps.KMeans { return apps.NewKMeans(256, 4, 4, 2, seed) }
	cfgAt := func(th int) commtm.Config {
		return commtm.Config{Threads: th, Protocol: commtm.CommTM, Seed: seed}
	}

	type result struct {
		stats  commtm.Stats
		digest uint64
	}
	a := New()
	var setups atomic.Int64
	captures := make([]atomic.Int64, len(threads))
	got := make([]result, len(threads)*perKey)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		ti := i / perKey
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := cfgAt(threads[ti])
			m := commtm.New(cfg)
			defer m.Close()
			w := mk()
			params, ok := w.SnapshotParams()
			if !ok || !w.SnapshotThreadInvariant() {
				t.Error("kmeans opted out of split snapshots")
				return
			}
			kcfg := cfg // the sweep's snapshot key: seed and protocol erased
			kcfg.Seed, kcfg.Protocol = 0, 0
			k := Key{Workload: w.Name(), Params: params, Seed: seed, Config: kcfg}
			bk := k
			bk.Config.Threads = 0
			<-start
			ent, hit := a.LoadSplit(k, bk,
				func() { setups.Add(1); w.Setup(m) },
				func(be BaseEntry) { m.RestoreBase(be.Img, seed); w.AdoptBaseHost(m, be.Host) },
				func() BaseEntry { return BaseEntry{Img: m.SnapshotBase(), Host: w.SnapshotHost()} },
				func() Entry {
					captures[ti].Add(1)
					return Entry{Img: m.Snapshot(), Host: w.SnapshotHost()}
				})
			if hit {
				m.Restore(ent.Img)
				w.AdoptHost(m, ent.Host)
			}
			m.Run(w.Body)
			if err := w.Validate(m); err != nil {
				t.Errorf("%d threads: %v", threads[ti], err)
			}
			got[i] = result{m.Stats(), m.MemDigest()}
		}()
	}
	close(start)
	wg.Wait()

	if n := setups.Load(); n != 1 {
		t.Errorf("Setup ran %d times, want 1 (one base capture for all geometries)", n)
	}
	st := a.Stats()
	if st.BaseMisses != 1 || st.BaseHits != uint64(len(threads)-1) {
		t.Errorf("base misses/hits = %d/%d, want 1/%d (every other geometry adopts the base)",
			st.BaseMisses, st.BaseHits, len(threads)-1)
	}
	if st.Misses != uint64(len(threads)) || st.Hits != uint64(len(threads)*(perKey-1)) {
		t.Errorf("full-key misses/hits = %d/%d, want %d/%d", st.Misses, st.Hits, len(threads), len(threads)*(perKey-1))
	}
	for ti, th := range threads {
		if n := captures[ti].Load(); n != 1 {
			t.Errorf("%d threads: overlay captured %d times, want 1", th, n)
		}
		m := commtm.New(cfgAt(th))
		w := mk()
		w.Setup(m)
		m.Run(w.Body)
		want := result{m.Stats(), m.MemDigest()}
		m.Close()
		for k := 0; k < perKey; k++ {
			if r := got[ti*perKey+k]; r != want {
				t.Errorf("%d threads, cell %d: split-snapshot run diverges from a fresh Setup run:\n  fresh: %+v %#x\n  split: %+v %#x",
					th, k, want.stats, want.digest, r.stats, r.digest)
			}
		}
	}
}
