// Package cache implements the set-associative cache arrays used for the
// private L1 and L2 caches of each simulated core. It stores both timing
// state (LRU) and protocol state per line: the MESI states plus the paper's
// user-defined reducible (U) state, the line's label, and the speculative
// read/write/labeled bits the HTM uses to track transaction footprints
// (paper Fig. 5).
package cache

import (
	"fmt"

	"commtm/internal/mem"
)

// State is the coherence state of a cached line.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	// ReducibleU is the paper's user-defined reducible state: the line holds
	// a partial, label-tagged value that only labeled accesses with the same
	// label may observe or update.
	ReducibleU
)

// String implements fmt.Stringer for debugging output.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case ReducibleU:
		return "U"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// NoLabel marks a line that carries no reducible label.
const NoLabel int8 = -1

// LineMeta is one cache way: tag, protocol state, speculative footprint
// bits, and the data payload. The metadata the victim scan reads (Tag,
// State, lru) leads the struct so the scan touches only each way's first
// few words, not its data payload.
type LineMeta struct {
	Tag   mem.Addr // line-aligned address; valid iff State != Invalid
	lru   uint64
	State State
	Label int8 // label id when State == ReducibleU, else NoLabel
	Dirty bool // data differs from the next level

	// Speculative footprint bits (L1 only; paper Fig. 5). SpecRead and
	// SpecWritten track conventional accesses, SpecLabeled tracks labeled
	// accesses (the transaction's "labeled set").
	SpecRead    bool
	SpecWritten bool
	SpecLabeled bool

	Data mem.Line
}

// SpecAny reports whether the line is in the current transaction's read,
// write, or labeled set.
func (l *LineMeta) SpecAny() bool { return l.SpecRead || l.SpecWritten || l.SpecLabeled }

// ClearSpec resets all speculative footprint bits.
func (l *LineMeta) ClearSpec() { l.SpecRead, l.SpecWritten, l.SpecLabeled = false, false, false }

// Cache is a set-associative array with LRU replacement. All ways live in
// one flat slice, way-major within each set; lookups index it directly with
// no per-set slice header indirection. A packed side array of tags mirrors
// LineMeta.Tag so the lookup scan touches one cache line per set instead of
// striding across the full (data-carrying) LineMeta records; tags change
// only inside Insert and Invalidate, which keep the mirror in sync.
//
// Insert is the only call that takes a set out of its all-zero state, so it
// records each set it writes (touched, dirty) and Reset clears just those.
type Cache struct {
	lines   []LineMeta // nsets × ways
	tags    []mem.Addr // tags[i] == lines[i].Tag, always
	ways    int
	setMask uint64
	tick    uint64
	touched []bool  // touched[s]: set s written since the last Reset or New
	dirty   []int32 // the touched sets, capacity nsets so Insert never grows it
}

// New builds a cache of sizeBytes with the given associativity over 64-byte
// lines. sizeBytes must yield a power-of-two number of sets.
//
// Fresh ways are left at their zero value (State Invalid): their Label and
// Tag fields are never read while Invalid, and Insert sets both explicitly,
// so construction does not write the whole array.
func New(sizeBytes, ways int) *Cache {
	lines := sizeBytes / mem.LineBytes
	if lines <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache: %dB/%d-way is not a valid geometry", sizeBytes, ways))
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", nsets))
	}
	return &Cache{
		lines:   make([]LineMeta, lines),
		tags:    make([]mem.Addr, lines),
		ways:    ways,
		setMask: uint64(nsets - 1),
		touched: make([]bool, nsets),
		dirty:   make([]int32, 0, nsets),
	}
}

// Reset restores the cache to its pristine post-New state in place: the
// ways and tags of every set written since the last Reset or New are
// cleared, and the LRU clock zeroed; geometry and array memory are kept, and
// the cost is O(sets written), not O(capacity). Sets never written are still
// all zero, so the arrays are bit-identical to freshly constructed ones and
// a Reset cache replays any access sequence exactly like a new one — the
// property the machine-lifecycle golden gate checks.
func (c *Cache) Reset() {
	for _, s := range c.dirty {
		base := int(s) * c.ways
		clear(c.lines[base : base+c.ways])
		clear(c.tags[base : base+c.ways])
		c.touched[s] = false
	}
	c.dirty = c.dirty[:0]
	c.tick = 0
}

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return len(c.lines) / c.ways }
func (c *Cache) Ways() int { return c.ways }

// setIdx returns the index of la's set.
func (c *Cache) setIdx(la mem.Addr) int { return int((uint64(la) / mem.LineBytes) & c.setMask) }

// setBase returns the flat index of la's set's first way.
func (c *Cache) setBase(la mem.Addr) int { return c.setIdx(la) * c.ways }

// Lookup returns the line holding la, or nil. It does not update LRU state;
// callers that hit should call Touch.
func (c *Cache) Lookup(la mem.Addr) *LineMeta {
	base := c.setBase(la)
	for i, t := range c.tags[base : base+c.ways] {
		// A tag match must be confirmed against the way's state: an empty
		// way's zero tag collides with the (legitimate) line address 0, and
		// a just-inserted way is Invalid until its caller initializes it.
		if t == la && c.lines[base+i].State != Invalid {
			return &c.lines[base+i]
		}
	}
	return nil
}

// Touch marks the line most recently used.
func (c *Cache) Touch(l *LineMeta) {
	c.tick++
	l.lru = c.tick
}

// lruVictim picks the least recently used non-avoided way of a full set
// (falling back to plain LRU when every way is avoided).
func (c *Cache) lruVictim(base int, avoid func(*LineMeta) bool) int {
	set := c.lines[base : base+c.ways]
	best := -1
	for i := range set {
		w := &set[i]
		if avoid != nil && avoid(w) {
			continue
		}
		if best < 0 || w.lru < set[best].lru {
			best = i
		}
	}
	if best < 0 { // every way avoided; fall back to plain LRU
		for i := range set {
			if best < 0 || set[i].lru < set[best].lru {
				best = i
			}
		}
	}
	return base + best
}

// insertIdx selects the way that an insertion of la replaces: an invalid
// way if any, else the least recently used among non-avoided ways. The
// avoid predicate (may be nil) deprioritizes ways — e.g. U-state lines (the
// paper reserves a way for non-U data so reduction handler misses never
// force a reduction) or speculative lines (whose eviction aborts the
// transaction). Avoided ways are chosen only when every way is avoided. The
// tag scan also checks the invariant that la is absent, so Insert pays no
// separate defensive Lookup per fill.
func (c *Cache) insertIdx(base int, la mem.Addr, avoid func(*LineMeta) bool) int {
	set := c.lines[base : base+c.ways]
	tags := c.tags[base : base+c.ways]
	// Dense tag scan first (the mirror exists so this loop never touches
	// LineMeta), then an early-exit invalid scan: cheaper than one fused
	// pass that loads every way's State.
	for i, t := range tags {
		if t == la && set[i].State != Invalid {
			panic(fmt.Sprintf("cache: Insert of already-present line %#x", uint64(la)))
		}
	}
	for i := range set {
		if set[i].State == Invalid {
			return base + i
		}
	}
	return c.lruVictim(base, avoid)
}

// AvoidU is an Insert avoid predicate that skips U-state lines.
func AvoidU(l *LineMeta) bool { return l.State == ReducibleU }

// AvoidSpec is an Insert avoid predicate that skips lines in a transaction's
// footprint (evicting them would abort the transaction).
func AvoidSpec(l *LineMeta) bool { return l.SpecAny() }

// AvoidSpecOrU skips both speculative and U-state lines.
func AvoidSpecOrU(l *LineMeta) bool { return l.SpecAny() || l.State == ReducibleU }

// Insert installs la into the cache, evicting the victim way if it holds a
// valid line. It returns the installed line (already tagged, state Invalid
// for the caller to initialize) and reports whether a valid line was
// evicted; when one was, its metadata is copied into *evOut (which must be
// non-nil and may point to caller stack or reused scratch — Insert never
// retains it, keeping the path allocation-free). The caller is responsible
// for protocol actions on the eviction.
func (c *Cache) Insert(la mem.Addr, avoid func(*LineMeta) bool, evOut *LineMeta) (inserted *LineMeta, hadVictim bool) {
	s := c.setIdx(la)
	i := c.insertIdx(s*c.ways, la, avoid)
	// Mark the set before writing the way, so Reset clears it even after a
	// run that panicked mid-fill.
	if !c.touched[s] {
		c.touched[s] = true
		c.dirty = append(c.dirty, int32(s))
	}
	w := &c.lines[i]
	if w.State != Invalid {
		*evOut = *w
		hadVictim = true
	}
	*w = LineMeta{Tag: la, State: Invalid, Label: NoLabel}
	c.tags[i] = la
	c.Touch(w)
	return w, hadVictim
}

// Invalidate drops la from the cache if present.
func (c *Cache) Invalidate(la mem.Addr) {
	base := c.setBase(la)
	for i, t := range c.tags[base : base+c.ways] {
		if t == la && c.lines[base+i].State != Invalid {
			c.lines[base+i] = LineMeta{Label: NoLabel}
			c.tags[base+i] = 0
			return
		}
	}
}
