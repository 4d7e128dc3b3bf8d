// Package mem models the simulated physical memory: a flat address space
// accessed at 64-bit word granularity, organized in 64-byte cache lines,
// with a canonical backing store and a bump allocator.
//
// The backing store holds the architectural (committed, fully reduced) value
// of every line that is not currently cached somewhere more authoritative;
// the coherence layer in internal/memsys decides when the backing store is
// stale (e.g. while private caches hold a line in M or U state).
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated physical byte address.
type Addr uint64

// Line geometry. The paper (Table I) uses 64-byte lines throughout.
const (
	LineBytes    = 64
	WordBytes    = 8
	WordsPerLine = LineBytes / WordBytes
	lineMask     = Addr(LineBytes - 1)
	lineShift    = 6 // log2(LineBytes)
)

// Line is the data payload of one cache line: eight 64-bit words.
type Line [WordsPerLine]uint64

// LineOf returns the line-aligned base address containing a.
func LineOf(a Addr) Addr { return a &^ lineMask }

// WordIdx returns the index (0..7) of the word containing a within its line.
func WordIdx(a Addr) int { return int(a>>3) & (WordsPerLine - 1) }

// IsWordAligned reports whether a is 8-byte aligned. All simulated memory
// operations are word-granular and require word alignment.
func IsWordAligned(a Addr) bool { return a&7 == 0 }

// Store page geometry: 64 lines (4 KiB) per page, so one uint64 bitmap
// tracks exactly which lines of a page are materialized.
const (
	pageShift     = 12
	pageBytes     = 1 << pageShift
	linesPerPage  = pageBytes / LineBytes
	lineInPageMsk = linesPerPage - 1
)

// pageData is the payload of one 4 KiB page: the line array plus a bitmap of
// which lines have been materialized (line granularity is preserved: Peek and
// Len observe exactly the lines that Line has touched).
type pageData struct {
	used  uint64
	lines [linesPerPage]Line
}

// pageSlot is a store's per-page view: the page plus the store generation it
// belongs to. A slot whose epoch trails the store's is logically empty
// (Reset happened since) and is re-zeroed lazily in place on its next write.
type pageSlot struct {
	epoch uint64
	data  *pageData
}

// revalidate brings a stale page into the current generation: the lines
// used in the previous generation are zeroed (only those — fresh pages are
// already zero), the bitmap cleared. Cost is proportional to the lines
// touched last generation.
func (pg *pageData) revalidate() {
	for m := pg.used; m != 0; m &= m - 1 {
		pg.lines[bits.TrailingZeros64(m)] = Line{}
	}
	pg.used = 0
}

// zeroLine is what ReadLine returns for lines that were never materialized:
// all reads of absent memory observe zeroes, without forcing the store to
// materialize a page for a pure read. Callers must treat ReadLine results as
// read-only.
var zeroLine Line

// Store is the canonical memory backing store, line granular. Lines are
// materialized lazily and zero-initialized, like freshly mapped pages.
//
// The store is a two-level page table — a slice of 4 KiB page slots indexed
// by page number — not a map: the simulator's bump allocator hands out a
// dense, low address space, so page-number indexing replaces the map hash
// that used to dominate every backing-store access, and iteration is in
// address order for free.
//
// Reset makes the store empty again without freeing pages: it bumps the
// store epoch, invalidating every page in O(1); each page zeroes its stale
// lines the next time it is written. Reset cost is therefore independent of
// capacity, and post-Reset reads observe zeroes exactly as a fresh store.
type Store struct {
	pages []pageSlot
	count int    // materialized lines (current epoch)
	epoch uint64 // current generation; slots with older stamps are empty
}

// NewStore returns an empty backing store.
func NewStore() *Store {
	return &Store{}
}

// Reset empties the store, retaining page memory for reuse. O(1): stale
// pages are zeroed lazily on their next write.
func (s *Store) Reset() {
	s.epoch++
	s.count = 0
}

// writablePage returns a current-generation page covering a, materializing
// or revalidating it as needed. This is the only path that may dirty page
// contents.
func (s *Store) writablePage(a Addr) *pageData {
	pi := int(a >> pageShift)
	if pi >= len(s.pages) {
		grown := make([]pageSlot, pi+pi/2+1)
		copy(grown, s.pages)
		s.pages = grown
	}
	slot := &s.pages[pi]
	pg := slot.data
	switch {
	case pg == nil:
		pg = &pageData{}
		slot.data = pg
		slot.epoch = s.epoch
	case slot.epoch != s.epoch:
		pg.revalidate()
		slot.epoch = s.epoch
	}
	return pg
}

// Line returns the backing line containing a, materializing it if needed.
// The returned pointer aliases store state; callers mutate it in place —
// this is the write accessor. Pure readers should use ReadLine, which never
// materializes.
func (s *Store) Line(a Addr) *Line {
	pg := s.writablePage(a)
	li := int(a>>lineShift) & lineInPageMsk
	if pg.used&(1<<li) == 0 {
		pg.used |= 1 << li
		s.count++
	}
	return &pg.lines[li]
}

// ReadLine returns the backing line containing a for reading only. Absent
// lines (never materialized, or stale since the last Reset) read as a shared
// all-zero line without being materialized, so a read never sets a used bit
// and never allocates. Callers must not write through the returned pointer.
func (s *Store) ReadLine(a Addr) *Line {
	pi := int(a >> pageShift)
	if pi >= len(s.pages) {
		return &zeroLine
	}
	slot := &s.pages[pi]
	pg := slot.data
	if pg == nil || slot.epoch != s.epoch {
		return &zeroLine
	}
	li := int(a>>lineShift) & lineInPageMsk
	if pg.used&(1<<li) == 0 {
		return &zeroLine
	}
	return &pg.lines[li]
}

// StoreLine writes a full line image to the line containing a, skipping the
// write entirely when memory already holds those bytes (evicting a clean or
// unmodified line writes back bytes identical to the backing store). The
// skip is observable and must stay: an all-zero line written over an absent
// one stays absent, which Len, Peek and ForEach — and so the memory
// digests — can see.
func (s *Store) StoreLine(a Addr, v *Line) {
	if *s.ReadLine(a) == *v {
		return
	}
	*s.Line(a) = *v
}

// Peek returns the line if present without materializing it.
func (s *Store) Peek(a Addr) (*Line, bool) {
	pi := int(a >> pageShift)
	if pi >= len(s.pages) {
		return nil, false
	}
	slot := &s.pages[pi]
	pg := slot.data
	if pg == nil || slot.epoch != s.epoch {
		return nil, false // absent or stale: logically empty since the last Reset
	}
	li := int(a>>lineShift) & lineInPageMsk
	if pg.used&(1<<li) == 0 {
		return nil, false
	}
	return &pg.lines[li], true
}

// Read64 reads the word containing a directly from the backing store,
// bypassing any caches. Intended for initialization and validation only.
// Reads of absent lines observe zero without materializing them.
func (s *Store) Read64(a Addr) uint64 {
	mustAligned(a)
	return s.ReadLine(a)[WordIdx(a)]
}

// Write64 writes the word containing a directly to the backing store,
// bypassing any caches. Intended for initialization and validation only.
func (s *Store) Write64(a Addr, v uint64) {
	mustAligned(a)
	s.Line(a)[WordIdx(a)] = v
}

// Len returns the number of materialized lines.
func (s *Store) Len() int { return s.count }

// ForEach calls fn for every materialized line in ascending address order,
// without allocating. fn must not materialize new lines.
func (s *Store) ForEach(fn func(la Addr, l *Line)) {
	for pi := range s.pages {
		slot := &s.pages[pi]
		pg := slot.data
		if pg == nil || slot.epoch != s.epoch {
			continue
		}
		base := Addr(pi) << pageShift
		for m := pg.used; m != 0; m &= m - 1 {
			li := bits.TrailingZeros64(m)
			fn(base+Addr(li)<<lineShift, &pg.lines[li])
		}
	}
}

func mustAligned(a Addr) {
	if !IsWordAligned(a) {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", uint64(a)))
	}
}

// Allocator is a bump allocator over the simulated address space. The zero
// page is left unmapped so that address 0 can serve as a null pointer in
// simulated data structures.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator whose first allocation starts at 4 KiB.
func NewAllocator() *Allocator {
	return &Allocator{next: 4096}
}

// Reset returns the allocator to its freshly constructed state, releasing
// the whole simulated address space for reuse.
func (al *Allocator) Reset() { al.next = 4096 }

// Alloc reserves size bytes aligned to align (which must be a power of two,
// at least 1) and returns the base address.
func (al *Allocator) Alloc(size int, align int) Addr {
	if size < 0 {
		panic("mem: negative allocation size")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a positive power of two", align))
	}
	mask := Addr(align - 1)
	base := (al.next + mask) &^ mask
	al.next = base + Addr(size)
	return base
}

// AllocLines reserves n whole cache lines, line aligned.
func (al *Allocator) AllocLines(n int) Addr {
	return al.Alloc(n*LineBytes, LineBytes)
}

// AllocWords reserves n words, word aligned.
func (al *Allocator) AllocWords(n int) Addr {
	return al.Alloc(n*WordBytes, WordBytes)
}
