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
	"sync"
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

// PageBytes is the store's page granularity — the unit of copy-on-write
// sharing between a live store and a snapshot image.
const PageBytes = pageBytes

// pageData is the payload of one 4 KiB page: the line array plus a bitmap of
// which lines have been materialized (line granularity is preserved: Peek and
// Len observe exactly the lines that Line has touched). Once sealed, a
// pageData is immutable and may be aliased by any number of StoreImages and
// live Stores simultaneously; a store must copy it before its next write
// (copy-on-write). Sealing is monotonic — a sealed page never becomes
// private again; stores drop their alias and the GC reclaims the page when
// the last image referencing it dies.
type pageData struct {
	used   uint64
	sealed bool
	// digest is the page's content address (FNV-1a over the used bitmap and
	// the used lines), computed once when the page is first sealed — sealed
	// payloads are immutable, so it never goes stale. Private pages carry a
	// meaningless zero; only sealed pages enter a PagePool.
	digest uint64
	lines  [linesPerPage]Line
}

// FNV-1a 64-bit parameters for page content digests (the same function the
// machine-level digests use, restated here so mem stays dependency-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// contentDigest hashes the page's payload: the used bitmap plus every used
// line's words. Lines outside the bitmap are guaranteed zero within the
// capture epoch (see imagePage), so hashing only used lines is exact; the
// bitmap is included because two pages with equal line contents but
// different materialization (an all-zero line present vs absent) are
// observably different through Peek/Len and must not pool together.
func (pg *pageData) contentDigest() uint64 {
	h := fnvWord(fnvOffset64, pg.used)
	for m := pg.used; m != 0; m &= m - 1 {
		l := &pg.lines[bits.TrailingZeros64(m)]
		for _, w := range l {
			h = fnvWord(h, w)
		}
	}
	return h
}

// contentEqual reports whether two pages hold bit-identical payloads — the
// collision check behind PagePool's digest chains. Both the bitmap and the
// full line array must match (see contentDigest for why the bitmap counts).
func contentEqual(a, b *pageData) bool {
	return a.used == b.used && a.lines == b.lines
}

// pageSlot is a store's per-page view: the shared (or private) payload plus
// the store generation the alias belongs to. A slot whose epoch trails the
// store's is logically empty (Reset happened since); private stale pages are
// re-zeroed lazily in place, sealed stale pages are dropped (they are
// immutable, so revalidation must not touch them).
type pageSlot struct {
	epoch uint64
	data  *pageData
}

// revalidate brings a stale private page into the current generation: the
// lines used in the previous generation are zeroed (only those — fresh pages
// are already zero), the bitmap cleared. Cost is proportional to the lines
// touched last generation. Must never run on a sealed page.
func (pg *pageData) revalidate() {
	for m := pg.used; m != 0; m &= m - 1 {
		pg.lines[bits.TrailingZeros64(m)] = Line{}
	}
	pg.used = 0
}

// zeroLine is what ReadLine returns for lines that were never materialized:
// all reads of absent memory observe zeroes, without forcing the store to
// materialize (or copy-on-write) a page for a pure read. Callers must treat
// ReadLine results as read-only.
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
// lines the next time it is touched. Reset cost is therefore independent of
// capacity, and post-Reset reads observe zeroes exactly as a fresh store.
//
// Snapshot seals the store's current pages and aliases them into an
// immutable StoreImage instead of copying; Restore adopts an image's page
// pointers the same way. Sealed pages are copied lazily, on the store's
// first write into them (see Line); cowCopies counts those copies.
type Store struct {
	pages     []pageSlot
	count     int    // materialized lines (current epoch)
	epoch     uint64 // current generation; slots with older stamps are empty
	cowCopies uint64 // sealed pages copied before a write, cumulative
}

// NewStore returns an empty backing store.
func NewStore() *Store {
	return &Store{}
}

// Reset empties the store, retaining page memory for reuse. O(1): stale
// pages are zeroed lazily on their next touch.
func (s *Store) Reset() {
	s.epoch++
	s.count = 0
}

// grow extends the page table to cover page index pi.
func (s *Store) grow(pi int) {
	if pi >= len(s.pages) {
		grown := make([]pageSlot, pi+pi/2+1)
		copy(grown, s.pages)
		s.pages = grown
	}
}

// writablePage returns a private, current-generation page covering a,
// materializing, revalidating, or copy-on-write copying as needed. This is
// the only path that may dirty page contents.
func (s *Store) writablePage(a Addr) *pageData {
	pi := int(a >> pageShift)
	s.grow(pi)
	slot := &s.pages[pi]
	pg := slot.data
	switch {
	case pg == nil:
		pg = &pageData{}
		slot.data = pg
		slot.epoch = s.epoch
	case slot.epoch != s.epoch:
		if pg.sealed {
			// Stale alias of an image page: the payload is immutable, so
			// drop the alias and start from a fresh zero page.
			pg = &pageData{}
			slot.data = pg
		} else {
			pg.revalidate()
		}
		slot.epoch = s.epoch
	case pg.sealed:
		// Live page shared with an image: copy before dirtying. The copy is
		// private (unsealed) and replaces the alias; the image keeps the
		// sealed original.
		cp := &pageData{used: pg.used, lines: pg.lines}
		slot.data = cp
		s.cowCopies++
		pg = cp
	}
	return pg
}

// Line returns the backing line containing a, materializing it if needed.
// The returned pointer aliases store state; callers mutate it in place —
// this is the write accessor, and it unshares (copies) a page sealed into a
// snapshot image before handing out the pointer. Pure readers should use
// ReadLine, which never materializes or unshares.
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
// all-zero line without being materialized, so a read never sets a used bit,
// never copies a sealed page, and never allocates. Callers must not write
// through the returned pointer.
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
// write entirely when memory already holds those bytes. The skip is what
// keeps copy-on-write sharing alive under cache writebacks: evicting a
// clean (Exclusive) or unmodified line writes back bytes identical to the
// backing store, and a plain Line() store would copy the whole sealed page
// just to overwrite it with itself. Contents after StoreLine are always
// exactly "v at a"; only the sharing state (and the used bit, when v is
// all-zero and the line was absent) differs from an unconditional write.
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

// CowCopies returns the cumulative number of sealed pages this store has
// copied before a write — the only whole-page copies the copy-on-write
// snapshot scheme ever performs.
func (s *Store) CowCopies() uint64 { return s.cowCopies }

// PageStats counts the store's current-generation materialized pages:
// shared pages alias a snapshot image's sealed payload (a write would copy
// first), private pages are owned by this store alone.
func (s *Store) PageStats() (shared, private int) {
	for i := range s.pages {
		slot := &s.pages[i]
		if slot.data == nil || slot.epoch != s.epoch {
			continue
		}
		if slot.data.sealed {
			shared++
		} else {
			private++
		}
	}
	return shared, private
}

// ForEach calls fn for every materialized line in ascending address order,
// without allocating. fn must not materialize new lines and must not write
// through the line pointer — pages may be sealed into snapshot images.
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

// imagePage is one captured page of a StoreImage: the page number and a
// pointer to the sealed payload the image shares with the store it was
// captured from (and with every store later restored from the image).
// Within the capture epoch every line outside the payload's bitmap is zero
// (lines only materialize through Line, and revalidate zeroes a stale
// private page's leftovers), so aliasing whole pages is exact.
type imagePage struct {
	index int
	data  *pageData
}

// StoreImage is an immutable capture of a store's materialized contents.
// Store.Snapshot seals the store's pages and aliases them here — no page
// payload is copied at capture, and Store.Restore adopts the same pointers
// back, so the only copies the scheme ever makes are copy-on-write copies
// of pages a store actually dirties afterwards. Images are shared read-only
// across goroutines (the snapshot arena hands one image to every worker
// that restores from it); nothing may mutate one after Snapshot returns.
type StoreImage struct {
	pages []imagePage // ascending page index
	lines int
}

// Lines returns the number of materialized lines the image holds.
func (img *StoreImage) Lines() int { return img.lines }

// Bytes returns the logical size of the image's page payloads — what a
// whole-page-copy image would occupy. The resident (host) footprint is
// smaller whenever pages are shared with live stores or sibling images.
func (img *StoreImage) Bytes() int { return len(img.pages) * pageBytes }

// Pages returns the number of pages the image references.
func (img *StoreImage) Pages() int { return len(img.pages) }

// Snapshot captures the store's current contents into an immutable image by
// sealing every materialized page and aliasing it — O(pages) pointer work,
// no payload copies. The store keeps using the sealed pages for reads; its
// first write into one copies it first (see Line).
func (s *Store) Snapshot() *StoreImage {
	n := 0
	for i := range s.pages {
		slot := &s.pages[i]
		if slot.data != nil && slot.epoch == s.epoch && slot.data.used != 0 {
			n++
		}
	}
	img := &StoreImage{lines: s.count, pages: make([]imagePage, 0, n)}
	for pi := range s.pages {
		slot := &s.pages[pi]
		pg := slot.data
		if pg == nil || slot.epoch != s.epoch || pg.used == 0 {
			continue
		}
		if !pg.sealed {
			pg.sealed = true
			pg.digest = pg.contentDigest()
		}
		img.pages = append(img.pages, imagePage{index: pi, data: pg})
	}
	return img
}

// Restore makes the store's contents exactly equal the image: an O(1)
// epoch-bump Reset followed by adopting the image's sealed page pointers —
// no payload copies ever; the store copies a page only when (and if) it
// later writes into it. No allocation beyond growing a page table that has
// never reached the image's highest page.
func (s *Store) Restore(img *StoreImage) {
	s.Reset()
	for i := range img.pages {
		p := &img.pages[i]
		s.grow(p.index)
		slot := &s.pages[p.index]
		slot.data = p.data
		slot.epoch = s.epoch
		s.count += bits.OnesCount64(p.data.used)
	}
}

// PagePool is a content-addressed registry of sealed page payloads. Interning
// an image rewrites each of its page pointers to the pool's canonical page
// with the same content, so images captured from unrelated stores — different
// arena keys, different sweeps — alias one physical payload whenever the
// bytes match. The pool lives as long as its owner (the snapshot arena) and
// never forgets a payload. Safe for concurrent use.
type PagePool struct {
	mu    sync.Mutex
	pages map[uint64][]*pageData // digest → collision chain

	interned       uint64 // pages inserted as new canonical payloads
	deduped        uint64 // pages resolved to an existing canonical payload
	contentDeduped uint64 // subset of deduped: distinct pointer, equal content
}

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool {
	return &PagePool{pages: make(map[uint64][]*pageData)}
}

// Intern registers every page of img in the pool, rewriting img's page
// pointers to the canonical payloads. img must be sealed (i.e. produced by
// Store.Snapshot) and not yet visible to concurrent readers — interning
// mutates its page table.
func (p *PagePool) Intern(img *StoreImage) {
	if p == nil || img == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range img.pages {
		ip := &img.pages[i]
		chain := p.pages[ip.data.digest]
		var found *pageData
		for _, c := range chain {
			if c == ip.data {
				found = c
				break
			}
			if contentEqual(c, ip.data) {
				found = c
				p.contentDeduped++
				break
			}
		}
		if found != nil {
			p.deduped++
			ip.data = found
			continue
		}
		p.pages[ip.data.digest] = append(chain, ip.data)
		p.interned++
	}
}

// PagePoolStats is a point-in-time snapshot of a pool's counters.
type PagePoolStats struct {
	Interned       uint64 // pages inserted as new canonical payloads, cumulative
	Deduped        uint64 // pages resolved to an already-pooled payload, cumulative
	ContentDeduped uint64 // deduped pages that were distinct pointers with equal bytes
	Pages          int    // live canonical pages right now
}

// Stats returns the pool's counters.
func (p *PagePool) Stats() PagePoolStats {
	if p == nil {
		return PagePoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PagePoolStats{
		Interned:       p.interned,
		Deduped:        p.deduped,
		ContentDeduped: p.contentDeduped,
		Pages:          int(p.interned), // the pool never forgets a page
	}
}

// Addrs returns the base addresses of every materialized line in ascending
// order, giving callers a canonical iteration order over the store.
func (s *Store) Addrs() []Addr {
	out := make([]Addr, 0, s.count)
	s.ForEach(func(la Addr, _ *Line) { out = append(out, la) })
	return out
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

// Restore rewinds the allocator to a break previously obtained from Brk, so
// a machine restored from a snapshot resumes allocating exactly where the
// snapshotted Setup left off.
func (al *Allocator) Restore(brk Addr) {
	if brk < 4096 {
		panic(fmt.Sprintf("mem: Allocator.Restore brk %#x below the unmapped zero page", uint64(brk)))
	}
	al.next = brk
}

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

// Brk returns the current top of the allocated region.
func (al *Allocator) Brk() Addr { return al.next }
