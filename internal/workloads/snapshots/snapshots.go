// Package snapshots implements the machine-image snapshot arena: a
// content-addressed cache of post-Setup machine state (commtm.Image) plus
// the host-side state the owning workload instance computed during Setup,
// keyed by (workload, canonical params, seed, configuration modulo seed).
// With the input arena the generated inputs are already cached, but every
// cell still replays them into the machine word by word; the snapshot
// arena caches the *installed* state instead, so a repeated cell skips
// Setup entirely — Machine.Restore adopts the image's copy-on-write pages
// by pointer and the workload adopts the cached host state.
//
// The contract (EXPERIMENTS.md "The machine-image snapshot contract"): a
// cached entry is captured once, immediately after the owning instance's
// Setup, and is immutable afterwards. The image side is enforced by
// commtm.Image (workers only read it); the host side is the workload's
// responsibility — SnapshotHost may expose only state that every instance
// sharing the key computes identically and that no run mutates, and
// AdoptHost must rebuild anything run-mutable fresh. Label handler closures
// captured in the image must be pure functions of data equal across
// instances sharing the key. Replay is proven invisible by the golden
// conformance gate, which runs the golden matrix with snapshots on and off
// against the same committed goldens.
//
// The arena is a thin typed wrapper over the generic keyed-singleflight
// core in internal/arena, shared with the input arena and the sweep machine
// pool. This package contributes the key/value types, the split of
// thread-invariant images into a base plus per-geometry overlays, and the
// content-addressed page pool every captured image is interned into. The
// arena is unbounded for the life of its owner and never releases an
// image: images are plain host memory, freed with the arena.
package snapshots

import (
	"commtm"
	"commtm/internal/arena"
)

// Snapshotter is the optional workload hook the sweep engine looks for. A
// workload implements it when its Setup is a pure function of (params,
// seed, machine configuration) — equivalently, when two instances built
// with the same constructor arguments produce bit-identical machine state
// and equivalent host state for the same (seed, config). Workloads whose
// Setup draws from sources outside that tuple (wall clock, global mutable
// state, machine RNG streams it cannot replay) must return ok=false from
// SnapshotParams, which opts every cell of the workload out of snapshotting.
type Snapshotter interface {
	// SnapshotParams returns the canonical encoding of every constructor
	// parameter the run reads, in Setup or Body (workload-private seeds
	// included), and whether this instance is snapshot-compatible at all.
	// Two instances with different constructor arguments must never return
	// the same params: besides keying snapshot images, the string keys the
	// sweep engine's result memo, where a collision would hand one run's
	// result to another. It is called before Setup, so it may read only
	// constructor-set fields.
	SnapshotParams() (params string, ok bool)
	// SnapshotHost returns the host-side state Setup computed — label ids,
	// base addresses, references to immutable cached inputs — to be cached
	// alongside the machine image. Called once, on the instance whose Setup
	// ran, immediately after Setup.
	SnapshotHost() any
	// AdoptHost installs host state captured by SnapshotHost on a fresh
	// instance whose machine m was restored from the image, replacing its
	// Setup call. Run-mutable state (per-thread cursors, output multisets,
	// union-find mirrors) must be rebuilt fresh here, never shared.
	AdoptHost(m *commtm.Machine, host any)
}

// ThreadInvariant is the opt-in a Snapshotter additionally implements when
// its Setup installs bit-identical machine state at every thread count: the
// same labels, the same allocations, the same memory writes, and no draws
// from machine PRNG streams (Machine.SnapshotBase enforces the last with a
// pristine-stream panic). Such workloads split their snapshot into a base
// image keyed by config-modulo-threads — captured once per parameter point
// and adopted across the whole thread sweep — plus the usual full-key entry.
// Workloads whose Setup sizes or places anything by thread count (per-thread
// pools, per-thread arena slots, thread-dependent writes) must not implement
// this, or must return false.
type ThreadInvariant interface {
	Snapshotter
	// SnapshotThreadInvariant reports whether this instance's Setup is
	// geometry-invariant. Called before Setup, alongside SnapshotParams.
	SnapshotThreadInvariant() bool
	// AdoptBaseHost installs host state captured by SnapshotHost on an
	// instance whose machine m was restored from a base image captured at a
	// possibly different thread count. Unlike AdoptHost, it must additionally
	// recompute anything the instance derives from the machine's geometry
	// (thread counts, per-thread partitions) from m.Config().
	AdoptBaseHost(m *commtm.Machine, host any)
}

// Key identifies one snapshot. Two keys are equal exactly when the
// post-Setup machine state would be bit-identical and the host state
// interchangeable: the workload name, the canonical parameter encoding from
// SnapshotParams, the machine seed, and the full machine configuration with
// the seed erased (geometry, protocol, and thread count all shape installed
// state or its interpretation).
type Key struct {
	Workload string
	Params   string
	Seed     uint64
	Config   commtm.Config
}

// Entry is one cached snapshot: the immutable machine image and the
// workload's host-side state.
type Entry struct {
	Img  *commtm.Image
	Host any
}

// BaseEntry is one cached thread-invariant base: the geometry-free machine
// image and the workload's host-side state (the same value SnapshotHost
// returns — base and full entries share it).
type BaseEntry struct {
	Img  *commtm.BaseImage
	Host any
}

// Stats is a snapshot of an arena's cache behavior. Hits, Misses and the
// page-pool counters are cumulative (Delta subtracts two readings); Size,
// BaseSize and PoolPages are current gauges.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"` // entries currently cached

	// Base-arena counters (thread-invariant split captures). A base hit is a
	// whole Setup skipped across geometries; base misses count distinct
	// config-modulo-threads keys captured.
	BaseHits   uint64 `json:"base_hits"`
	BaseMisses uint64 `json:"base_misses"`
	BaseSize   int    `json:"base_size"`

	// Content-addressed page-pool counters. PagesDeduped/PagesInterned is
	// the cross-image content-dedup ratio; ContentDeduped is the subset of
	// deduped pages that were distinct pointers with equal bytes (sharing
	// pointer-identity dedup alone would have missed).
	PagesInterned  uint64 `json:"pages_interned"`
	PagesDeduped   uint64 `json:"pages_deduped"`
	ContentDeduped uint64 `json:"content_deduped"`
	PoolPages      int    `json:"pool_pages"`
}

// Delta returns the counter movement between prev and s, keeping s's
// gauges. Engine runs sharing a process-lifetime arena use it to report
// per-run metrics.
func (s Stats) Delta(prev Stats) Stats {
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	s.BaseHits -= prev.BaseHits
	s.BaseMisses -= prev.BaseMisses
	s.PagesInterned -= prev.PagesInterned
	s.PagesDeduped -= prev.PagesDeduped
	s.ContentDeduped -= prev.ContentDeduped
	return s
}

// Arena is a content-addressed, unbounded snapshot cache, safe for
// concurrent use: the sweep engine shares one arena across all workers of a
// run (or, via Engine.Snapshots, across every run of a process). A nil
// *Arena is valid and never caches.
type Arena struct {
	c    arena.Arena[Key, Entry]     // full-key overlay entries
	b    arena.Arena[Key, BaseEntry] // config-modulo-threads base entries
	pool *commtm.PagePool            // content-addressed pages across both
}

// New returns an empty arena.
func New() *Arena { return &Arena{pool: commtm.NewPagePool()} }

// Load returns the cached snapshot for k, running capture on a miss and
// caching its result. capture must run the workload's Setup on the caller's
// machine and return the captured entry. The returned hit reports whether
// the entry came from cache (true) — the caller must then Restore the image
// and adopt the host state — or was captured by this call (false) — the
// caller's machine already holds the state. Misses are single-flighted per
// key: one concurrent caller captures while the others wait, so Setup never
// runs twice for one key. A capture panic unpublishes the pending entry and
// wakes its waiters before propagating (sweep panic containment per cell);
// a waiter woken by an abandoned entry re-claims, possibly becoming the new
// owner. A nil arena runs capture directly and reports hit=false.
func (a *Arena) Load(k Key, capture func() Entry) (e Entry, hit bool) {
	if a == nil {
		return capture(), false
	}
	return a.c.Load(k, func() Entry {
		e := capture()
		a.intern(e.Img)
		return e
	})
}

// intern registers a freshly captured image's pages in the content pool.
// Runs inside the singleflight generator, before the entry is published —
// the only point where rewriting the image's page pointers is safe.
func (a *Arena) intern(img *commtm.Image) {
	if img != nil && a.pool != nil {
		img.InternPages(a.pool)
	}
}

// LoadSplit is Load for thread-invariant workloads: the full-key entry at k
// is backed by a base entry at bk (k with the thread count erased), captured
// once and adopted across every geometry sharing bk.
//
// On a full-key miss the base arena is consulted first. A base miss runs
// setup (the workload's Setup on the caller's machine — required pristine,
// exactly as Load's capture contract) and captureBase; a base hit instead
// runs installBase, which must RestoreBase the image onto the caller's
// machine and adopt the host state at the machine's own geometry — Setup
// never runs. Either way capture then records the machine's state as the
// full-key entry. Both loads are single-flighted: concurrent cells of
// different geometries capture the base once, and concurrent cells of one
// geometry capture its overlay once.
//
// The returned hit has Load's meaning exactly: true means the entry came
// from cache and the caller must Restore+AdoptHost; false means the caller's
// machine already holds the state — whether setup or installBase produced it.
// A nil arena runs setup then capture, like Load.
func (a *Arena) LoadSplit(k, bk Key, setup func(), installBase func(BaseEntry), captureBase func() BaseEntry, capture func() Entry) (e Entry, hit bool) {
	if a == nil {
		setup()
		return capture(), false
	}
	return a.c.Load(k, func() Entry {
		be, bhit := a.b.Load(bk, func() BaseEntry {
			setup()
			b := captureBase()
			if b.Img != nil && a.pool != nil {
				b.Img.InternPages(a.pool)
			}
			return b
		})
		if bhit {
			installBase(be)
		}
		e := capture()
		a.intern(e.Img)
		return e
	})
}

// Stats returns a snapshot of the arena's counters. Nil-safe.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	s := a.c.Stats()
	bs := a.b.Stats()
	ps := a.pool.Stats()
	return Stats{
		Hits: s.Hits, Misses: s.Misses, Size: s.Size,
		BaseHits: bs.Hits, BaseMisses: bs.Misses, BaseSize: bs.Size,
		PagesInterned: ps.Interned, PagesDeduped: ps.Deduped,
		ContentDeduped: ps.ContentDeduped, PoolPages: ps.Pages,
	}
}

// Len returns the number of cached snapshots. Nil-safe.
func (a *Arena) Len() int {
	if a == nil {
		return 0
	}
	return a.c.Len()
}
