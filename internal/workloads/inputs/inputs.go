// Package inputs implements the workload-input arena: a content-addressed
// cache of generated workload inputs, keyed by (workload kind, canonical
// parameters, generation seed). Input construction — graph generation,
// reference solutions, permutations, op/key streams — dominates per-cell
// host cost in large sweeps now that the machine itself is Reset-reused, so
// the sweep engine shares one arena across its workers and workloads replay
// a cached input into simulated memory instead of regenerating it.
//
// The contract (EXPERIMENTS.md "The workload-input arena contract"): a
// cached value is generated once and is immutable afterwards. It may hold
// only machine-independent data — host-side graphs, datasets, reference
// results, and architectural-RNG op streams (precomputed with
// commtm.ArchRand, so a replayed stream equals the live Thread.Rand draws
// bit for bit). Anything a run mutates (union-find mirrors, output
// multisets) or that depends on machine identity (simulated addresses)
// must be rebuilt per Setup. Replay is proven invisible by the golden
// conformance gate, which runs the golden matrix with arenas on and off
// against the same committed goldens.
//
// The arena is a thin typed wrapper over the generic keyed-singleflight
// core in internal/arena; the caching machinery itself (singleflight, panic
// unpublish, exactly-one-outcome stats) lives there, shared with the
// snapshot arena and the sweep machine pool. This package contributes only
// the key/value types. The arena is unbounded for the life of its owner and
// never releases a value, so cached inputs need no close policy.
package inputs

import "commtm/internal/arena"

// Key identifies one generated input. Two keys are equal exactly when the
// generated input would be byte-identical: Kind names the workload family,
// Params is a canonical encoding of every parameter the generation reads
// (including the thread count when the input is partitioned per thread),
// and Seed is the generation seed.
type Key struct {
	Kind   string
	Params string
	Seed   uint64
}

// User is the optional workload extension the sweep engine looks for: a
// workload that can replay cached inputs receives the run's arena before
// Setup. A workload holding a nil arena (the default) generates fresh.
type User interface {
	UseInputs(*Arena)
}

// Stats is a snapshot of an arena's cache behavior: cumulative Hits and
// Misses and the current entry count.
type Stats = arena.Stats

// Arena is a content-addressed, unbounded input cache. It is safe for
// concurrent use: the sweep engine shares one arena across all workers of a
// run (inputs are immutable, so sharing is free and gives cross-worker hits
// that mutable machine arenas cannot have). A nil *Arena is valid and
// always generates fresh.
type Arena struct {
	c arena.Arena[Key, any]
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Load returns the cached input for k, generating and caching it on a
// miss. gen must be a pure function of k (same key, same bytes). Misses
// are single-flighted per key: one concurrent caller generates while the
// others wait for its result, so the expensive generation never runs twice
// for one key. A generator panic unpublishes the pending entry and wakes
// its waiters before propagating; a woken waiter re-claims. A nil arena
// calls gen directly.
func Load[T any](a *Arena, k Key, gen func() T) T {
	if a == nil {
		return gen()
	}
	// Hit fast path: Get needs no generator, so a warm Load avoids
	// allocating the boxing closure below (pinned by the allocation gate).
	if v, ok := a.c.Get(k); ok {
		return v.(T)
	}
	v, _ := a.c.Load(k, func() any { return gen() })
	return v.(T)
}

// Stats returns a snapshot of the arena's counters. Nil-safe.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.c.Stats()
}

// Len returns the number of cached inputs. Nil-safe.
func (a *Arena) Len() int {
	if a == nil {
		return 0
	}
	return a.c.Len()
}
