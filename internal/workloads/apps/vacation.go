package apps

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/hashtab"
	"commtm/internal/workloads/inputs"
	"commtm/internal/xrand"
)

// Vacation reproduces the transactional behaviour of STAMP vacation: a
// travel reservation system with three item relations (cars, flights,
// rooms) and a customer relation, all resizable hash tables. Tasks are
// make-reservation (query several items, reserve the cheapest available),
// delete-customer (release all its reservations), and update-tables
// (add/remove items — the inserts decrement the tables' bounded
// remaining-space counters, Table II's gather-request use case).
//
// Validation is invariant-based (the reservation outcomes legitimately
// depend on the interleaving): per-item 0 <= reserved <= total, reservation
// conservation between customers and items, and bounded-counter
// conservation per table.
type Vacation struct {
	NItems, NCustomers, NTasks, NQueries int
	Seed                                 uint64

	threads int
	add     commtm.LabelID
	m       *commtm.Machine
	inputs  *inputs.Arena
	tables  [3]*hashtab.Table
	custTb  *hashtab.Table
	nextID  []int // per-thread fresh item ids for update-tables adds
}

// Record layout for items: {total, reserved, price}; reservations link as
// {itemRef, next} pairs hanging off the customer's value word.
const (
	recTotal    = 0
	recReserved = 8
	recPrice    = 16
)

// NewVacation builds the workload (paper input: -n4 -q60 -u90 -r32768 -t8192).
func NewVacation(items, customers, tasks, queries int, seed uint64) *Vacation {
	return &Vacation{NItems: items, NCustomers: customers, NTasks: tasks, NQueries: queries, Seed: seed}
}

// VacationName is the workload's registry/row name.
const VacationName = "vacation"

// Name implements harness.Workload.
func (vc *Vacation) Name() string { return VacationName }

// UseInputs implements inputs.User.
func (vc *Vacation) UseInputs(a *inputs.Arena) { vc.inputs = a }

func itemRef(table int, id uint64) uint64 { return uint64(table)<<48 | id }

// pow2AtLeast returns the smallest power of two that is >= both n and floor
// (floor must itself be a power of two).
func pow2AtLeast(n, floor int) int {
	p := floor
	for p < n {
		p <<= 1
	}
	return p
}

// vacationInput is the machine-independent generated input: the item
// {total, price} streams, in the exact draw order the uncached Setup
// produces them (tables outermost, items innermost, total before price).
// The table installs themselves (allocations, record writes) are
// machine-side and happen per Setup.
type vacationInput struct {
	totals, prices []uint64 // 3*NItems each, indexed ti*NItems + (id-1)
}

// Setup implements harness.Workload.
func (vc *Vacation) Setup(m *commtm.Machine) {
	vc.m = m
	vc.threads = m.Config().Threads
	vc.add = m.DefineLabel(commtm.AddLabel("ADD"))
	in := inputs.Load(vc.inputs,
		inputs.Key{Kind: VacationName, Params: fmt.Sprintf("r=%d", vc.NItems), Seed: vc.Seed},
		func() *vacationInput {
			rng := xrand.New(vc.Seed ^ 0x7ac1a7)
			in := &vacationInput{
				totals: make([]uint64, 3*vc.NItems),
				prices: make([]uint64, 3*vc.NItems),
			}
			for i := range in.totals {
				in.totals[i] = uint64(rng.Intn(5)) + 1
				in.prices[i] = uint64(rng.Intn(500)) + 100
			}
			return in
		})
	for ti := range vc.tables {
		// Capacity covers the initial population with modest slack, so
		// update-tables inserts exercise the counter and occasionally the
		// resize path. Buckets scale with the relation (4 entries per chain,
		// like STAMP's load factor), so chain length — and with it every
		// lookup transaction's footprint — is independent of -scale.
		vc.tables[ti] = hashtab.New(m, vc.add, pow2AtLeast(vc.NItems/4, 256), vc.NItems+vc.NItems/8)
		for id := 1; id <= vc.NItems; id++ {
			rec := m.AllocLines(1)
			m.MemWrite64(rec+recTotal, in.totals[ti*vc.NItems+id-1])
			m.MemWrite64(rec+recPrice, in.prices[ti*vc.NItems+id-1])
			vc.seedInsert(m, vc.tables[ti], uint64(id), uint64(rec))
		}
	}
	vc.custTb = hashtab.New(m, vc.add, pow2AtLeast(vc.NCustomers, 256), vc.NCustomers+vc.NCustomers/8)
	for id := 1; id <= vc.NCustomers; id++ {
		vc.seedInsert(m, vc.custTb, uint64(id), 0)
	}
	vc.nextID = make([]int, vc.threads)
	for th := range vc.nextID {
		vc.nextID[th] = vc.NItems + 1 + th*vc.NTasks
	}
}

// seedInsert populates a table before the simulation (direct memory writes,
// mirroring hashtab's layout: this is initialization, not measured work).
func (vc *Vacation) seedInsert(m *commtm.Machine, tb *hashtab.Table, key, val uint64) {
	node := tb.NewNode(m)
	m.MemWrite64(node, key)
	m.MemWrite64(node+8, val)
	m.MemWrite64(node+16, m.MemRead64(tb.SlotAddr(m, key)))
	m.MemWrite64(tb.SlotAddr(m, key), uint64(node))
	m.MemWrite64(tb.RemainAddr(), m.MemRead64(tb.RemainAddr())-1)
}

// Params implements sweep.Parameterized. All four size parameters
// shape Setup or the nextID partition, and the workload-private seed drives
// the item streams.
func (vc *Vacation) Params() (string, bool) {
	return fmt.Sprintf("r=%d c=%d t=%d q=%d wseed=%d",
		vc.NItems, vc.NCustomers, vc.NTasks, vc.NQueries, vc.Seed), true
}

// reserve queries NQueries random items in one table and reserves the
// cheapest available one for a random customer — one transaction, like
// STAMP's client loop.
func (vc *Vacation) reserve(t *commtm.Thread, rng *xrand.RNG) {
	table := rng.Intn(3)
	tb := vc.tables[table]
	ids := make([]uint64, vc.NQueries)
	for i := range ids {
		ids[i] = rng.Uint64n(uint64(vc.NItems)) + 1
	}
	cust := rng.Uint64n(uint64(vc.NCustomers)) + 1
	resNode := vc.custTb.NewNode(vc.m)
	for {
		locked := false
		t.Txn(func() {
			locked = tb.LockedIn(t)
		})
		if !locked {
			break
		}
		t.Cycles(200)
	}
	t.Txn(func() {
		if tb.LockedIn(t) {
			return // resize raced in; this trip's queries would be unsound
		}
		bestRec := commtm.Addr(0)
		bestPrice := ^uint64(0)
		var bestID uint64
		for _, id := range ids {
			p := tb.LookupIn(t, id)
			if p == 0 {
				continue
			}
			rec := commtm.Addr(t.Load64(p + 8))
			total := t.Load64(rec + recTotal)
			reserved := t.Load64(rec + recReserved)
			price := t.Load64(rec + recPrice)
			if reserved < total && price < bestPrice {
				bestRec, bestPrice, bestID = rec, price, id
			}
		}
		if bestRec == 0 {
			return
		}
		t.Store64(bestRec+recReserved, t.Load64(bestRec+recReserved)+1)
		cp := vc.custTb.LookupIn(t, cust)
		if cp == 0 {
			return
		}
		head := t.Load64(cp + 8)
		t.Store64(resNode, itemRef(table, bestID))
		t.Store64(resNode+8, head)
		t.Store64(cp+8, uint64(resNode))
	})
}

// deleteCustomer releases every reservation a customer holds.
func (vc *Vacation) deleteCustomer(t *commtm.Thread, rng *xrand.RNG) {
	cust := rng.Uint64n(uint64(vc.NCustomers)) + 1
	for {
		retry := false
		t.Txn(func() {
			retry = false
			for _, tb := range vc.tables {
				if tb.LockedIn(t) {
					retry = true
					return
				}
			}
		})
		if !retry {
			break
		}
		t.Cycles(200)
	}
	t.Txn(func() {
		for _, tb := range vc.tables {
			if tb.LockedIn(t) {
				return // a resize raced in; skip this task deterministically
			}
		}
		cp := vc.custTb.LookupIn(t, cust)
		if cp == 0 {
			return
		}
		for p := commtm.Addr(t.Load64(cp + 8)); p != 0; {
			ref := t.Load64(p)
			table, id := int(ref>>48), ref&0xffffffffffff
			if ip := vc.tables[table].LookupIn(t, id); ip != 0 {
				rec := commtm.Addr(t.Load64(ip + 8))
				t.Store64(rec+recReserved, t.Load64(rec+recReserved)-1)
			}
			p = commtm.Addr(t.Load64(p + 8))
		}
		t.Store64(cp+8, 0)
	})
}

// updateTables adds a fresh item or removes a random one — the inserts
// exercise the bounded remaining-space counters with gathers.
func (vc *Vacation) updateTables(t *commtm.Thread, rng *xrand.RNG) {
	table := rng.Intn(3)
	tb := vc.tables[table]
	if rng.Intn(2) == 0 {
		id := uint64(vc.nextID[t.ID()])
		vc.nextID[t.ID()]++
		rec := vc.m.AllocLines(1)
		t.Store64(rec+recTotal, uint64(rng.Intn(5))+1)
		t.Store64(rec+recPrice, uint64(rng.Intn(500))+100)
		node := tb.NewNode(vc.m)
		tb.Insert(t, id, uint64(rec), node)
		return
	}
	// Remove only never-reserved fresh items so reservation conservation
	// holds without tombstones (STAMP guards removals similarly).
	id := uint64(vc.NItems + 1 + rng.Intn(vc.NItems))
	tb.Remove(t, id)
}

// Body implements harness.Workload.
func (vc *Vacation) Body(t *commtm.Thread) {
	id := t.ID()
	n := share(vc.NTasks, vc.threads, id)
	rng := xrand.Derive(vc.Seed^0x7acca, uint64(id))
	for i := 0; i < n; i++ {
		t.Cycles(40) // task generation
		switch r := rng.Intn(100); {
		case r < 80:
			vc.reserve(t, rng)
		case r < 90:
			vc.deleteCustomer(t, rng)
		default:
			vc.updateTables(t, rng)
		}
	}
}

// Validate implements harness.Workload.
func (vc *Vacation) Validate(m *commtm.Machine) error {
	// Count reservations per item from the customer side.
	resCount := map[uint64]uint64{}
	custEntries := 0
	vc.custTb.Walk(m, func(k, v uint64) {
		custEntries++
		for p := commtm.Addr(v); p != 0; p = commtm.Addr(m.MemRead64(p + 8)) {
			resCount[m.MemRead64(p)]++
		}
	})
	if custEntries != vc.NCustomers {
		return fmt.Errorf("customer table has %d entries, want %d", custEntries, vc.NCustomers)
	}
	for ti, tb := range vc.tables {
		entries := uint64(0)
		var err error
		tb.Walk(m, func(k, v uint64) {
			entries++
			rec := commtm.Addr(v)
			total := m.MemRead64(rec + recTotal)
			reserved := m.MemRead64(rec + recReserved)
			if int64(reserved) < 0 || reserved > total {
				err = fmt.Errorf("table %d item %d: reserved %d of %d", ti, k, reserved, total)
				return
			}
			if got := resCount[itemRef(ti, k)]; got != reserved {
				err = fmt.Errorf("table %d item %d: customers hold %d, record says %d", ti, k, got, reserved)
			}
			delete(resCount, itemRef(ti, k))
		})
		if err != nil {
			return err
		}
		rem := m.MemRead64(tb.RemainAddr())
		if rem+entries != tb.CapacityTotal() {
			return fmt.Errorf("table %d: remaining %d + entries %d != capacity %d",
				ti, rem, entries, tb.CapacityTotal())
		}
	}
	if len(resCount) != 0 {
		return fmt.Errorf("%d reservations reference missing items", len(resCount))
	}
	return nil
}
