// Package arena is the generic keyed-singleflight cache beneath the repo's
// two caches: the workload-input arena (internal/workloads/inputs) and the
// sweep engine's result memo (internal/sweep). Both need the same subtle
// machinery — per-key singleflight with publish-before-value entries and
// panic unpublish with waiter wakeup — and before this package existed they
// were hand-synced copies that had already drifted (a waiter woken by a
// panicked owner could count both a hit and a miss for one Load). The
// contract every client relies on is documented in EXPERIMENTS.md "The
// generic arena contract".
//
// An arena is a mutex and a map, unbounded for the life of its owner:
// nothing is ever evicted or removed.
//
// The core guarantees, in brief:
//
//   - Singleflight: a miss publishes a pending entry before its value
//     exists; one caller (the owner) generates while racers wait on the
//     entry's ready channel, so an expensive generation never runs twice
//     for one key and no generated value is silently discarded.
//   - Panic protocol: if the owner's generator panics, the pending entry
//     is unpublished and its waiters woken before the panic propagates;
//     a woken waiter re-claims and may become the new owner.
//   - Exactly one outcome per Load: every Load increments exactly one of
//     Hits or Misses, whether it hits a settled entry, waits out an
//     in-flight one, generates, or panics while generating.
package arena

import "sync"

// Stats is a snapshot of an arena's behavior. Hits and Misses are
// cumulative counters; Size is the current entry count.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

// Delta returns the counter movement between prev and s, keeping s's Size.
// Clients sharing a process-lifetime arena across runs use it to report
// per-run metrics.
func (s Stats) Delta(prev Stats) Stats {
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	return s
}

// entry is one cached value. An entry is published to the map before its
// value exists (per-key singleflight): the claiming caller generates, then
// closes ready; racers wait on it instead of regenerating.
type entry[K comparable, V any] struct {
	key   K
	val   V
	ready chan struct{}
	done  bool // val is set; only done entries are returned
}

// Arena is a content-addressed, unbounded, concurrency-safe cache. The zero
// value is a valid arena; a nil *Arena is also valid and always generates
// fresh (nil-arena semantics every client preserves).
type Arena[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	hits    uint64
	misses  uint64
}

// Load returns the cached value for k, generating and caching it on a miss,
// and reports whether the value came from cache. gen must be a pure
// function of k (same key, same value). Misses are single-flighted per key,
// so two concurrent Loads of one key receive the SAME value, which is why
// only immutable values belong in an arena. A nil arena calls gen directly
// and reports hit=false.
func (a *Arena[K, V]) Load(k K, gen func() V) (V, bool) {
	if a == nil {
		return gen(), false
	}
	for {
		e, owner, hit := a.claim(k)
		if owner {
			return a.generate(e, gen), false
		}
		if hit {
			return e.val, true
		}
		<-e.ready
		if e.done {
			a.mu.Lock()
			a.hits++
			a.mu.Unlock()
			return e.val, true
		}
		// The owner's generator panicked and the entry was unpublished;
		// claim again (this caller may become the new owner and hit the
		// same panic itself, which is the correct failure shape: the sweep
		// engine contains generation panics per cell).
	}
}

// Get returns the cached value when k is present and settled, counting a
// hit; otherwise it reports ok=false and counts nothing (the caller falls
// through to Load, which claims or waits). It exists so wrappers that must
// adapt gen through a closure (inputs.Load boxing T into any) can keep
// their hit path allocation-free: Get needs no generator at all.
func (a *Arena[K, V]) Get(k K) (V, bool) {
	var zero V
	if a == nil {
		return zero, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.entries[k]; e != nil && e.done {
		a.hits++
		return e.val, true
	}
	return zero, false
}

// claim returns k's entry and the caller's role: owner (a miss — the caller
// must generate; counted as this Load's miss), hit (a settled entry;
// counted as this Load's hit), or neither (an in-flight entry; the caller
// waits and the outcome is counted when known).
func (a *Arena[K, V]) claim(k K) (e *entry[K, V], owner, hit bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.entries[k]; e != nil {
		if e.done {
			a.hits++
			return e, false, true
		}
		return e, false, false
	}
	if a.entries == nil {
		a.entries = make(map[K]*entry[K, V])
	}
	a.misses++
	e = &entry[K, V]{key: k, ready: make(chan struct{})}
	a.entries[k] = e
	return e, true, false
}

// generate runs gen as e's owner. If gen panics, the pending entry is
// unpublished and its waiters woken before the panic propagates — leaving
// it would hang every later Load for the key on a never-closed ready
// channel, wedging the sweep engine's panic containment.
func (a *Arena[K, V]) generate(e *entry[K, V], gen func() V) V {
	settled := false
	defer func() {
		a.mu.Lock()
		e.done = settled // readers touch val only once done is set
		if !settled {
			delete(a.entries, e.key)
		}
		a.mu.Unlock()
		close(e.ready)
	}()
	e.val = gen() // outside the lock: generation is the expensive part
	settled = true
	return e.val
}

// Stats returns a snapshot of the arena's counters. Nil-safe.
func (a *Arena[K, V]) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Hits: a.hits, Misses: a.misses, Size: len(a.entries)}
}

// Len returns the number of entries (settled and in flight). Nil-safe.
func (a *Arena[K, V]) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}
