// Package memsys implements the simulated memory system of the paper: a
// three-level cache hierarchy (per-core private L1 and L2, a shared banked
// L3 with an in-cache directory), the MESI coherence protocol, and the
// CommTM extension — the user-defined reducible (U) state, labeled
// requests (GETU), transparent reductions, and gather requests.
//
// memsys is the substrate beneath the transactional runtime in
// internal/core. It is purely passive: cores call Access and receive the
// value, the access latency in cycles, and (possibly) a self-abort verdict.
// Conflicts with other cores' transactions are arbitrated through the
// Arbiter interface; when a victim transaction loses, memsys rolls its
// speculative cache state back immediately and notifies the arbiter, whose
// job is to unwind the victim's control flow at its next operation.
//
// Versioning follows the paper's eager-conflict/lazy-version design
// (Sec. III-B): the L1 holds speculatively updated data, the private L2
// holds only non-speculative data, and commits promote dirty L1 lines into
// the L2. The invariant maintained throughout is:
//
//	L2 data  = the committed (non-speculative) value of every cached line
//	L1 data  = L2 data, plus the current transaction's speculative updates
//
// For U-state lines the invariant from Sec. III-B3 also holds: reducing the
// non-speculative partial values of all sharers (plus the directory copy
// when no sharer holds data) always yields the architectural value.
package memsys

import (
	"fmt"

	"commtm/internal/cache"
	"commtm/internal/mem"
	"commtm/internal/noc"
	"commtm/internal/xrand"
)

// Op is the kind of memory operation a core issues.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpLabeledRead  // load[label]
	OpLabeledWrite // store[label]
	OpGather       // load_gather[label]
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "ld"
	case OpWrite:
		return "st"
	case OpLabeledRead:
		return "ld[l]"
	case OpLabeledWrite:
		return "st[l]"
	case OpGather:
		return "gather"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// LabelID identifies a registered reducible label. The paper's hardware
// supports a small number (8); RegisterLabel enforces the limit.
type LabelID = int8

// NoLabel marks unlabeled operations.
const NoLabel LabelID = -1

// MaxLabels is the number of architectural labels (3 tag bits per line).
const MaxLabels = 8

// LabelSpec defines one commutative operation family: its identity value,
// its reduction handler, and (optionally) its splitter for gather requests.
type LabelSpec struct {
	Name string

	// Identity initializes a line that enters U state without data
	// (GETU cases 4 and 5 in Sec. III-B3).
	Identity mem.Line

	// Reduce merges src into dst. It runs non-speculatively on the
	// requester's shadow thread. It may access memory through rc (for
	// indirection-based structures such as linked lists and top-K heaps)
	// but must not touch other reducible lines; rc panics if it does.
	Reduce func(rc *ReduceCtx, dst *mem.Line, src *mem.Line)

	// Split donates part of local into out in response to a gather request
	// (Sec. IV). numSharers is the number of U-state sharers, which
	// splitters use to rebalance. A nil Split makes gathers collect nothing
	// from this label's sharers.
	Split func(rc *ReduceCtx, local *mem.Line, out *mem.Line, numSharers int)

	// ReduceCost and SplitCost are extra cycles charged per handler
	// invocation, modelling the shadow thread's compute time.
	ReduceCost uint64
	SplitCost  uint64
}

// Cause classifies why a transaction aborted, matching the paper's Fig. 18
// breakdown of wasted cycles.
type Cause uint8

const (
	CauseNone           Cause = iota
	CauseReadAfterWrite       // a read arrived for speculatively written data
	CauseWriteAfterRead       // a write arrived for speculatively read data
	CauseGatherLabeled        // a gather/split touched speculatively accessed data
	CauseOther                // evictions, write-write, label demotion, ...
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseReadAfterWrite:
		return "read-after-write"
	case CauseWriteAfterRead:
		return "write-after-read"
	case CauseGatherLabeled:
		return "gather-after-labeled"
	case CauseOther:
		return "other"
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// SelfAbort tells the calling transaction it must abort itself.
type SelfAbort uint8

const (
	SelfNone SelfAbort = iota
	// SelfNacked: an older transaction NACKed this core's request
	// (Sec. III-B3/B4). Retry with the same timestamp.
	SelfNacked
	// SelfDemote: the transaction issued an unlabeled access to data it had
	// speculatively modified with labeled accesses (Sec. III-B4). Retry
	// with labeled operations demoted to conventional ones.
	SelfDemote
	// SelfEvicted: speculatively accessed data was evicted from the private
	// hierarchy (Sec. III-B1).
	SelfEvicted
)

// Req identifies the requester of an access.
type Req struct {
	Core int
	TS   uint64 // transaction timestamp; meaningful only if InTx
	InTx bool
	Now  uint64 // requester's current cycle, for line-occupancy serialization
}

// Arbiter is implemented by the transactional runtime. memsys calls TxTS to
// learn whether a core is mid-transaction (and its priority), and
// NotifyAbort after it has rolled back a victim's speculative state.
type Arbiter interface {
	TxTS(core int) (ts uint64, active bool)
	NotifyAbort(core int, cause Cause)
}

// Params configures the memory system. Zero fields take Table-I defaults
// via DefaultParams.
type Params struct {
	Cores   int
	L1Bytes int
	L1Ways  int
	L2Bytes int
	L2Ways  int

	L1Lat  uint64 // L1 hit latency (IPC-1 core: 1)
	L2Lat  uint64
	L3Lat  uint64
	MemLat uint64

	Mesh *noc.Mesh

	EnableU      bool // CommTM protocol; false = baseline MESI HTM
	EnableGather bool

	Seed uint64
}

// DefaultParams returns the paper's Table-I configuration for n cores.
func DefaultParams(n int) Params {
	return Params{
		Cores:   n,
		L1Bytes: 32 * 1024, L1Ways: 8,
		L2Bytes: 128 * 1024, L2Ways: 8,
		L1Lat: 1, L2Lat: 6, L3Lat: 15, MemLat: 136,
		Mesh:    noc.Default4x4(),
		EnableU: true, EnableGather: true,
	}
}

// Counters aggregates the event counts the evaluation reports.
type Counters struct {
	GETS, GETX, GETU uint64 // requests from private L2s to the L3 (Fig. 19)

	L1Hits, L2Hits, L3Accesses uint64
	MemFetches                 uint64

	Reductions    uint64 // full reductions triggered by non-commutative ops
	ReducedLines  uint64 // lines merged during reductions
	Gathers       uint64 // gather requests issued
	Splits        uint64 // splitter executions
	UForwards     uint64 // U-line evictions forwarded to another sharer
	NACKs         uint64
	Invalidations uint64
	Writebacks    uint64
	LabeledAccess uint64 // labeled loads/stores/gathers issued
	TotalAccess   uint64 // all data accesses issued
	VictimAborts  uint64 // transactions aborted by remote requests
	SelfAborts    uint64 // NACK/demote/eviction self-aborts
}

type dirState uint8

const (
	dirInvalid dirState = iota // no private copies; data in L3/memory
	dirShared
	dirExclusive
	dirU
)

type dirEntry struct {
	state   dirState
	owner   int    // valid when dirExclusive
	sharers BitSet // valid when dirShared or dirU
	label   LabelID
	seen    bool // line has been fetched from memory before
	// busy is when the line's current coherence transaction completes.
	// Directory requests to a busy line queue behind it, modelling the
	// serialization of ownership transfers that makes contended lines a
	// throughput bottleneck (the ping-pong the paper's baseline suffers).
	busy uint64
}

// Directory page geometry mirrors mem.Store: 64 line entries (4 KiB of
// simulated memory) per page, indexed by page number. The bump-allocated
// address space is dense, so a slice of pages replaces the per-access map
// hash (and the separate busy map) that used to dominate MemSys.Access.
const (
	dirPageShift    = 12
	dirLinesPerPage = (1 << dirPageShift) / mem.LineBytes
	dirLineMask     = dirLinesPerPage - 1
)

// dirPage entries start at their zero value: a dirInvalid entry's owner and
// label are never read (every read is guarded by dirExclusive/dirU, and
// every transition into those states writes the field), so page
// materialization is a plain zeroed allocation. epoch stamps the generation
// the entries belong to, mirroring mem.Store's lazy page zeroing: Reset
// bumps the memory system's epoch in O(1) and a stale page is cleared the
// next time a request reaches it.
type dirPage struct {
	epoch   uint64
	entries [dirLinesPerPage]dirEntry
}

// priv is one core's private cache hierarchy.
type priv struct {
	l1, l2 *cache.Cache
	// specLines tracks the current transaction's footprint for O(footprint)
	// commit and rollback. Lines with spec bits are pinned in the L1.
	specLines []mem.Addr
	// avoidL1Spec is the L2 victim predicate "the L1 copy is in the current
	// transaction's footprint", prebuilt so misses do not allocate a closure.
	avoidL1Spec func(*cache.LineMeta) bool
}

// MemSys is the simulated memory system.
type MemSys struct {
	p      Params
	store  *mem.Store
	arb    Arbiter
	labels []LabelSpec
	privs  []priv
	// dirPages is the two-level directory table: one entry per simulated
	// line, pages materialized on first touch (see dirPage).
	dirPages []*dirPage
	rng      *xrand.RNG
	ctr      Counters
	banks    int
	// nocTab memoizes the mesh's analytic latency formulas (noc.LatTable);
	// dirLat/invalLat run on every slow-path access and gather/reduce
	// forward, so their Manhattan arithmetic is replaced by table loads.
	// Like the mesh itself it is immutable: Reset does not touch it.
	nocTab *noc.LatTable
	epoch  uint64 // directory-page generation; see dirPage
	// evScratch receives L2 eviction copies whose address flows into
	// reduction handlers (see ensurePrivate); a long-lived home keeps the
	// per-miss copy off the heap. Never valid across calls.
	evScratch cache.LineMeta
}

// New builds a memory system. The arbiter may be nil for non-transactional
// use (all conflict checks then treat every core as not in a transaction).
func New(p Params, store *mem.Store, arb Arbiter) *MemSys {
	if p.Cores <= 0 || p.Cores > p.Mesh.Cores() {
		panic(fmt.Sprintf("memsys: %d cores does not fit mesh with %d cores", p.Cores, p.Mesh.Cores()))
	}
	if p.Cores > maxBitSet {
		panic(fmt.Sprintf("memsys: %d cores exceeds BitSet capacity %d", p.Cores, maxBitSet))
	}
	ms := &MemSys{
		p:      p,
		store:  store,
		arb:    arb,
		rng:    xrand.New(p.Seed ^ 0xc0ffee),
		banks:  p.Mesh.Tiles(),
		nocTab: p.Mesh.Table(),
	}
	for i := 0; i < p.Cores; i++ {
		l1 := cache.New(p.L1Bytes, p.L1Ways)
		ms.privs = append(ms.privs, priv{
			l1: l1,
			l2: cache.New(p.L2Bytes, p.L2Ways),
			avoidL1Spec: func(m *cache.LineMeta) bool {
				c := l1.Lookup(m.Tag)
				return c != nil && c.SpecAny()
			},
		})
	}
	return ms
}

// Reset restores the memory system to the state New(p with Seed=seed,
// store, arb) would produce, without freeing cache arrays, directory pages,
// or footprint slices. In every private cache the sets written since the
// last Reset are cleared in place (cache.Cache.Reset), the label registry
// emptied (workloads re-register on their next Setup), counters
// zeroed, the microarchitectural RNG re-derived, and the directory epoch
// bumped so stale pages — including their seen bits and busy horizons, which
// Drain deliberately leaves behind — read as zero again. The backing store
// has its own lifecycle (mem.Store.Reset) owned by the machine.
func (ms *MemSys) Reset(seed uint64) {
	ms.p.Seed = seed
	ms.labels = ms.labels[:0]
	for i := range ms.privs {
		pv := &ms.privs[i]
		pv.l1.Reset()
		pv.l2.Reset()
		pv.specLines = pv.specLines[:0]
	}
	ms.epoch++
	ms.rng.Seed(seed ^ 0xc0ffee)
	ms.ctr = Counters{}
	ms.evScratch = cache.LineMeta{}
}

// RegisterLabel installs a commutative-operation label and returns its id.
func (ms *MemSys) RegisterLabel(s LabelSpec) LabelID {
	if len(ms.labels) >= MaxLabels {
		panic(fmt.Sprintf("memsys: label limit (%d) exceeded; virtualize labels in software (Sec. III-D)", MaxLabels))
	}
	if s.Reduce == nil {
		panic("memsys: label needs a Reduce handler")
	}
	ms.labels = append(ms.labels, s)
	return LabelID(len(ms.labels) - 1)
}

// Label returns the spec for id (for inspection by the runtime and tests).
func (ms *MemSys) Label(id LabelID) *LabelSpec { return &ms.labels[id] }

// Counters returns the live counter block.
func (ms *MemSys) Counters() *Counters { return &ms.ctr }

// Params returns the configuration.
func (ms *MemSys) Params() Params { return ms.p }

func (ms *MemSys) entry(la mem.Addr) *dirEntry {
	pi := int(la >> dirPageShift)
	if pi >= len(ms.dirPages) {
		grown := make([]*dirPage, pi+pi/2+1)
		copy(grown, ms.dirPages)
		ms.dirPages = grown
	}
	pg := ms.dirPages[pi]
	if pg == nil {
		pg = &dirPage{epoch: ms.epoch}
		ms.dirPages[pi] = pg
	} else if pg.epoch != ms.epoch {
		// Stale since the last Reset: restore the zero state lazily. Every
		// entry is dirInvalid between runs anyway (Drain leaves it so), but a
		// drained-by-panic machine may have left arbitrary entries, and the
		// zero value is the fresh-page contract either way.
		pg.entries = [dirLinesPerPage]dirEntry{}
		pg.epoch = ms.epoch
	}
	return &pg.entries[int(la>>6)&dirLineMask]
}

func (ms *MemSys) bankOf(la mem.Addr) int { return int(la/mem.LineBytes) % ms.banks }

// dirLat is the round-trip latency of a request from core to the home L3
// bank plus the L3 access itself (and memory on a cold miss). The mesh
// round-trip is one memoized table load (same values as the analytic
// Mesh.CoreToBank; see noc.LatTable and TestLatTableMatchesAnalytic).
func (ms *MemSys) dirLat(core int, la mem.Addr, e *dirEntry) uint64 {
	lat := 2*ms.nocTab.CoreToBank(core, ms.bankOf(la)) + ms.p.L3Lat
	ms.ctr.L3Accesses++
	if !e.seen {
		e.seen = true
		ms.ctr.MemFetches++
		lat += ms.p.MemLat
	}
	return lat
}

// invalLat approximates the latency of the directory invalidating or
// downgrading a remote sharer and the data/ack reaching the requester:
// bank→sharer, L2 access at the sharer, sharer→requester. Two memoized
// table loads replace three Manhattan-distance computations.
func (ms *MemSys) invalLat(reqCore, remote int, la mem.Addr) uint64 {
	return ms.nocTab.BankToCore(ms.bankOf(la), remote) +
		ms.p.L2Lat +
		ms.nocTab.CoreToCore(remote, reqCore)
}

// txActive reports whether core is in an active transaction.
func (ms *MemSys) txActive(core int) (uint64, bool) {
	if ms.arb == nil {
		return 0, false
	}
	return ms.arb.TxTS(core)
}

// arbitrate resolves a conflict between a requester and a victim core whose
// transaction speculatively touched a line. It returns nack=true when the
// victim is older and the requester must abort itself; otherwise it aborts
// the victim (rolling back its cache state immediately) and returns
// nack=false. Non-transactional requests cannot be NACKed.
func (ms *MemSys) arbitrate(req Req, victim int, cause Cause) (nack bool) {
	vts, active := ms.txActive(victim)
	if !active {
		return false
	}
	if req.InTx && req.TS > vts {
		ms.ctr.NACKs++
		return true
	}
	ms.abortVictim(victim, cause)
	return false
}

func (ms *MemSys) abortVictim(victim int, cause Cause) {
	ms.ctr.VictimAborts++
	ms.rollback(victim)
	ms.arb.NotifyAbort(victim, cause)
}

// markSpec records a line in a core's transactional footprint.
func (ms *MemSys) markSpec(core int, l1 *cache.LineMeta, read, written, labeled bool) {
	wasSpec := l1.SpecAny()
	if read {
		l1.SpecRead = true
	}
	if written {
		l1.SpecWritten = true
	}
	if labeled {
		l1.SpecLabeled = true
	}
	if !wasSpec && l1.SpecAny() {
		ms.privs[core].specLines = append(ms.privs[core].specLines, l1.Tag)
	}
}

// CommitCore promotes a core's speculative L1 data into the non-speculative
// L2 and clears the transactional footprint. With lazy versioning the
// commit itself cannot fail (conflicts were resolved eagerly).
func (ms *MemSys) CommitCore(core int) {
	pv := &ms.privs[core]
	for _, la := range pv.specLines {
		l1 := pv.l1.Lookup(la)
		if l1 == nil || !l1.SpecAny() {
			continue // footprint entry cleared by an earlier abort path
		}
		if l1.SpecWritten {
			l2 := pv.l2.Lookup(la)
			if l2 == nil {
				panic(fmt.Sprintf("memsys: committing core %d line %#x absent from inclusive L2", core, uint64(la)))
			}
			l2.Data = l1.Data
			l2.Dirty = true
			l1.Dirty = true
		}
		l1.ClearSpec()
	}
	pv.specLines = pv.specLines[:0]
}

// rollback restores a core's speculative lines to their non-speculative L2
// values and clears the footprint. Called for both victim and self aborts.
func (ms *MemSys) rollback(core int) {
	pv := &ms.privs[core]
	for _, la := range pv.specLines {
		l1 := pv.l1.Lookup(la)
		if l1 == nil || !l1.SpecAny() {
			continue
		}
		if l1.SpecWritten {
			l2 := pv.l2.Lookup(la)
			if l2 == nil {
				panic(fmt.Sprintf("memsys: rolling back core %d line %#x absent from inclusive L2", core, uint64(la)))
			}
			l1.Data = l2.Data
		}
		l1.ClearSpec()
	}
	pv.specLines = pv.specLines[:0]
}

// AbortCore rolls back a core's own transaction (self-abort path). The
// runtime calls this after receiving a SelfAbort verdict.
func (ms *MemSys) AbortCore(core int) {
	ms.ctr.SelfAborts++
	ms.rollback(core)
}

// nonSpecData returns the committed value of a line cached by core.
func (ms *MemSys) nonSpecData(core int, la mem.Addr) *mem.Line {
	l2 := ms.privs[core].l2.Lookup(la)
	if l2 == nil {
		fail("core %d has no L2 copy of %#x", core, uint64(la))
	}
	return &l2.Data
}

// dropPrivate removes a line from a core's L1 and L2 without protocol
// actions (the caller has already handled data movement and the directory).
func (ms *MemSys) dropPrivate(core int, la mem.Addr) {
	ms.privs[core].l1.Invalidate(la)
	ms.privs[core].l2.Invalidate(la)
}

// setPrivState sets the coherence state (and label) of a core's cached line
// in both levels, preserving data.
func (ms *MemSys) setPrivState(core int, la mem.Addr, st cache.State, label LabelID) {
	pv := &ms.privs[core]
	if l2 := pv.l2.Lookup(la); l2 != nil {
		l2.State, l2.Label = st, label
	}
	if l1 := pv.l1.Lookup(la); l1 != nil {
		l1.State, l1.Label = st, label
	}
}
