// Package hashtab implements the transactional resizable hash table that
// genome and vacation build on (the Blundell et al. variant the paper
// compiles STAMP with): a chained hash table whose remaining-space counter
// is a non-negative bounded counter (Sec. IV). Inserts decrement the
// counter with labeled operations — conditionally commutative updates that
// serialize conventional HTMs and scale under CommTM with gather requests —
// and trigger a resize when space is exhausted.
//
// Resizes serialize through a lock word that every mutating transaction
// reads: taking the lock aborts in-flight mutators, and later mutators spin
// until the swap transaction publishes the new bucket array.
package hashtab

import (
	"fmt"

	"commtm"
)

// Table descriptor layout (one line):
//
//	word 0: bucket array base address
//	word 1: bucket count (power of two)
//	word 2: resize lock (0 free / 1 held)
//
// The remaining-space counter lives on its own line (it is the contended
// reducible datum).
const (
	dscBuckets = 0
	dscNB      = 8
	dscLock    = 16
)

// Node layout: {key, value, next}, one line per node (padded).
const nodeBytes = commtm.LineBytes

// Table is a resizable chained hash table in simulated memory.
type Table struct {
	m   *commtm.Machine
	add commtm.LabelID

	dsc      commtm.Addr
	remainA  commtm.Addr
	grows    int
	capTotal uint64 // initial capacity plus all resize credits
}

// New builds a table with nb initial buckets (power of two) and capacity
// slots before a resize is needed. The add label must be a bounded-ADD
// label (commtm.AddLabel) shared with the application.
func New(m *commtm.Machine, add commtm.LabelID, nb, capacity int) *Table {
	if nb <= 0 || nb&(nb-1) != 0 {
		panic(fmt.Sprintf("hashtab: bucket count %d not a power of two", nb))
	}
	tb := &Table{m: m, add: add}
	tb.dsc = m.AllocLines(1)
	tb.remainA = m.AllocLines(1)
	buckets := m.AllocWords(nb)
	m.MemWrite64(tb.dsc+dscBuckets, uint64(buckets))
	m.MemWrite64(tb.dsc+dscNB, uint64(nb))
	m.MemWrite64(tb.remainA, uint64(capacity))
	tb.capTotal = uint64(capacity)
	return tb
}

// CapacityTotal returns the capacity including all resize credits, for
// validating the bounded counter: remaining + live entries == CapacityTotal.
func (tb *Table) CapacityTotal() uint64 { return tb.capTotal }

// LookupIn walks the chain for key inside the caller's transaction,
// returning the node address ({key, value, next} words) or 0. Composes
// multi-step operations (query-then-reserve) into one transaction.
func (tb *Table) LookupIn(t *commtm.Thread, key uint64) commtm.Addr {
	return tb.lookupIn(t, key)
}

// SlotAddr returns the bucket slot address for key from architectural
// memory — a pre-run seeding and validation helper.
func (tb *Table) SlotAddr(m *commtm.Machine, key uint64) commtm.Addr {
	buckets := commtm.Addr(m.MemRead64(tb.dsc + dscBuckets))
	nb := m.MemRead64(tb.dsc + dscNB)
	return buckets + commtm.Addr((mix(key)&(nb-1))*8)
}

// LockedIn reads the resize lock inside the caller's transaction. Any
// transaction that walks chains must check it first: a resize relinks nodes
// in place, so chain walks concurrent with a rehash can transiently miss
// entries. Reading the lock word puts it in the read set, so the resizer's
// lock acquisition aborts in-flight walkers.
func (tb *Table) LockedIn(t *commtm.Thread) bool {
	return t.Load64(tb.dsc+dscLock) != 0
}

// RemainAddr exposes the bounded counter address (for validation).
func (tb *Table) RemainAddr() commtm.Addr { return tb.remainA }

// Grows returns how many resizes have happened.
func (tb *Table) Grows() int { return tb.grows }

// NewNode reserves a node line. Call outside transactions (slots must not
// leak on abort); the caller owns pool partitioning across threads.
func (tb *Table) NewNode(m *commtm.Machine) commtm.Addr {
	return m.AllocLines(1)
}

func mix(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 29
	return key
}

// lookupIn walks the chain for key under the current descriptor, returning
// the node address or 0. Runs inside the caller's transaction.
func (tb *Table) lookupIn(t *commtm.Thread, key uint64) commtm.Addr {
	buckets := commtm.Addr(t.Load64(tb.dsc + dscBuckets))
	nb := t.Load64(tb.dsc + dscNB)
	slot := buckets + commtm.Addr((mix(key)&(nb-1))*8)
	for p := commtm.Addr(t.Load64(slot)); p != 0; p = commtm.Addr(t.Load64(p + 16)) {
		if t.Load64(p) == key {
			return p
		}
	}
	return 0
}

// Lookup returns the value stored for key, transactionally.
func (tb *Table) Lookup(t *commtm.Thread, key uint64) (val uint64, ok bool) {
	t.Txn(func() {
		ok = false
		if p := tb.lookupIn(t, key); p != 0 {
			val = t.Load64(p + 8)
			ok = true
		}
	})
	return val, ok
}

// Insert adds key→val if absent, using node (a fresh line from NewNode)
// for storage. It returns whether the key was newly inserted. The
// remaining-space decrement follows the paper's bounded-counter pattern:
// local partial, then gather, then full reduction; exhaustion triggers a
// resize and the insert retries.
func (tb *Table) Insert(t *commtm.Thread, key, val uint64, node commtm.Addr) (inserted bool) {
	for {
		needGrow := false
		t.Txn(func() {
			inserted, needGrow = false, false
			if t.Load64(tb.dsc+dscLock) != 0 {
				needGrow = true // resize in progress; wait and retry
				return
			}
			if tb.lookupIn(t, key) != 0 {
				return
			}
			rem := t.LoadL(tb.remainA, tb.add)
			if rem == 0 {
				rem = t.LoadGather(tb.remainA, tb.add)
				if rem == 0 {
					rem = t.Load64(tb.remainA)
					if rem == 0 {
						needGrow = true
						return
					}
				}
			}
			t.StoreL(tb.remainA, tb.add, rem-1)
			buckets := commtm.Addr(t.Load64(tb.dsc + dscBuckets))
			nb := t.Load64(tb.dsc + dscNB)
			slot := buckets + commtm.Addr((mix(key)&(nb-1))*8)
			head := t.Load64(slot)
			t.Store64(node, key)
			t.Store64(node+8, val)
			t.Store64(node+16, head)
			t.Store64(slot, uint64(node))
			inserted = true
		})
		if !needGrow {
			return inserted
		}
		tb.grow(t)
	}
}

// Remove deletes key if present, crediting the space back to the bounded
// counter. Returns whether a node was removed.
func (tb *Table) Remove(t *commtm.Thread, key uint64) (removed bool) {
	for {
		locked := false
		t.Txn(func() {
			removed, locked = false, false
			if t.Load64(tb.dsc+dscLock) != 0 {
				locked = true
				return
			}
			buckets := commtm.Addr(t.Load64(tb.dsc + dscBuckets))
			nb := t.Load64(tb.dsc + dscNB)
			slot := buckets + commtm.Addr((mix(key)&(nb-1))*8)
			prev := commtm.Addr(0)
			for p := commtm.Addr(t.Load64(slot)); p != 0; p = commtm.Addr(t.Load64(p + 16)) {
				if t.Load64(p) == key {
					next := t.Load64(p + 16)
					if prev == 0 {
						t.Store64(slot, next)
					} else {
						t.Store64(prev+16, next)
					}
					v := t.LoadL(tb.remainA, tb.add)
					t.StoreL(tb.remainA, tb.add, v+1)
					removed = true
					return
				}
				prev = p
			}
		})
		if !locked {
			return removed
		}
		t.Cycles(200) // wait out the resize
	}
}

// grow doubles the bucket array. One thread wins the lock; losers wait.
// The rehash runs in small transactions while mutators are fenced out by
// the lock word, and the final swap transaction publishes the new array
// and credits the extra capacity to the bounded counter.
func (tb *Table) grow(t *commtm.Thread) {
	won := false
	t.Txn(func() {
		won = false
		if t.Load64(tb.dsc+dscLock) != 0 {
			return
		}
		// Re-check under the lock attempt: another thread may have grown
		// the table while we were waiting to notice.
		if t.Load64(tb.remainA) != 0 {
			return
		}
		t.Store64(tb.dsc+dscLock, 1)
		won = true
	})
	if !won {
		t.Cycles(200)
		return
	}
	oldBuckets := commtm.Addr(t.Load64(tb.dsc + dscBuckets))
	oldNB := int(t.Load64(tb.dsc + dscNB))
	newNB := oldNB * 2
	newBuckets := tb.m.AllocWords(newNB)
	moved := 0
	for b := 0; b < oldNB; b++ {
		t.Txn(func() {
			p := commtm.Addr(t.Load64(oldBuckets + commtm.Addr(b*8)))
			for p != 0 {
				next := commtm.Addr(t.Load64(p + 16))
				key := t.Load64(p)
				slot := newBuckets + commtm.Addr((mix(key)&uint64(newNB-1))*8)
				t.Store64(p+16, t.Load64(slot))
				t.Store64(slot, uint64(p))
				p = next
				moved++
			}
		})
	}
	t.Txn(func() {
		t.Store64(tb.dsc+dscBuckets, uint64(newBuckets))
		t.Store64(tb.dsc+dscNB, uint64(newNB))
		// The doubled table has oldNB*growFactor extra slots of capacity.
		v := t.LoadL(tb.remainA, tb.add)
		t.StoreL(tb.remainA, tb.add, v+uint64(oldNB*growFactor))
		t.Store64(tb.dsc+dscLock, 0)
	})
	tb.grows++
	tb.capTotal += uint64(oldNB * growFactor)
}

// growFactor is the capacity credited per old bucket on a resize.
const growFactor = 4

// Walk iterates the table's contents from architectural memory after a
// run (validation helper; do not call mid-simulation).
func (tb *Table) Walk(m *commtm.Machine, fn func(key, val uint64)) {
	buckets := commtm.Addr(m.MemRead64(tb.dsc + dscBuckets))
	nb := int(m.MemRead64(tb.dsc + dscNB))
	for b := 0; b < nb; b++ {
		for p := commtm.Addr(m.MemRead64(buckets + commtm.Addr(b*8))); p != 0; p = commtm.Addr(m.MemRead64(p + 16)) {
			fn(m.MemRead64(p), m.MemRead64(p+8))
		}
	}
}
