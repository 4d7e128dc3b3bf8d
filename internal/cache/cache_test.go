package cache

import (
	"testing"
	"testing/quick"

	"commtm/internal/mem"
)

func la(i int) mem.Addr { return mem.Addr(i * mem.LineBytes) }

// countValid returns the number of valid lines in c.
func countValid(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}

// wayOf returns the flat index in c's way array of l, a way of la's set.
func wayOf(c *Cache, la mem.Addr, l *LineMeta) int {
	base := c.setBase(la)
	for i := base; i < base+c.ways; i++ {
		if &c.lines[i] == l {
			return i
		}
	}
	return -1
}

func TestGeometry(t *testing.T) {
	c := New(32*1024, 8) // L1: 64 sets
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("32KB/8-way: got %d sets × %d ways, want 64×8", c.Sets(), c.Ways())
	}
	c2 := New(128*1024, 8) // L2: 256 sets
	if c2.Sets() != 256 {
		t.Fatalf("128KB/8-way: got %d sets, want 256", c2.Sets())
	}
}

func TestInsertLookup(t *testing.T) {
	c := New(4096, 4) // 16 sets
	var ev LineMeta
	l, evicted := c.Insert(la(3), nil, &ev)
	if evicted {
		t.Fatal("eviction from empty cache")
	}
	l.State = Modified
	l.Data[0] = 99
	got := c.Lookup(la(3))
	if got == nil || got.Data[0] != 99 || got.State != Modified {
		t.Fatal("Lookup did not return inserted line")
	}
	if c.Lookup(la(4)) != nil {
		t.Fatal("Lookup returned a line never inserted")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := New(4096, 4)
	l, _ := c.Insert(la(1), nil, new(LineMeta))
	l.State = Shared
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(la(1), nil, new(LineMeta))
}

func TestLRUEviction(t *testing.T) {
	c := New(4*mem.LineBytes, 4) // 1 set, 4 ways
	for i := 0; i < 4; i++ {
		l, evicted := c.Insert(la(i), nil, new(LineMeta))
		l.State = Shared
		if evicted {
			t.Fatalf("unexpected eviction inserting %d", i)
		}
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Touch(c.Lookup(la(0)))
	var ev LineMeta
	_, evicted := c.Insert(la(10), nil, &ev)
	if !evicted || ev.Tag != la(1) {
		t.Fatalf("evicted %+v, want line 1", ev)
	}
	if c.Lookup(la(1)) != nil {
		t.Fatal("evicted line still present")
	}
}

// TestVictimPrefersInvalid: a fill takes the first invalid way of its set
// and evicts nothing, before LRU order or the avoid predicate is consulted
// (here one that avoids exactly the invalid ways).
func TestVictimPrefersInvalid(t *testing.T) {
	c := New(4*mem.LineBytes, 4) // 1 set, 4 ways
	for i := 0; i < 4; i++ {
		l, _ := c.Insert(la(i), nil, new(LineMeta))
		l.State = Modified
	}
	c.Invalidate(la(3))
	c.Invalidate(la(1))
	avoidInvalid := func(l *LineMeta) bool { return l.State == Invalid }
	l, evicted := c.Insert(la(5), avoidInvalid, new(LineMeta))
	if evicted {
		t.Fatal("Insert evicted a valid way while invalid ways exist")
	}
	if l != &c.lines[1] {
		t.Fatalf("Insert filled way %d, want the first invalid way 1", wayOf(c, la(5), l))
	}
}

// TestVictimAvoidsU: with an avoid predicate, a full set's victim is the LRU
// way the predicate does not avoid; when it avoids every way, the victim is
// the plain LRU way.
func TestVictimAvoidsU(t *testing.T) {
	c := New(4*mem.LineBytes, 4)
	for i := 0; i < 4; i++ {
		l, _ := c.Insert(la(i), nil, new(LineMeta))
		if i < 3 {
			l.State = ReducibleU
			l.Label = 0
		} else {
			l.State = Shared
		}
	}
	// Make the S line most-recently-used; AvoidU must still pick it.
	c.Touch(c.Lookup(la(3)))
	var ev LineMeta
	l, evicted := c.Insert(la(9), AvoidU, &ev)
	if !evicted || ev.State != Shared || ev.Tag != la(3) {
		t.Fatalf("AvoidU evicted %v line %#x (evicted=%v), want S line %#x", ev.State, ev.Tag, evicted, la(3))
	}
	// With every way U, fall back to LRU among the U lines: line 0.
	l.State, l.Label = ReducibleU, 0
	_, evicted = c.Insert(la(10), AvoidU, &ev)
	if !evicted || ev.State != ReducibleU || ev.Tag != la(0) {
		t.Fatalf("all-U set evicted %v line %#x (evicted=%v), want U line %#x", ev.State, ev.Tag, evicted, la(0))
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4096, 4)
	l, _ := c.Insert(la(2), nil, new(LineMeta))
	l.State = Exclusive
	c.Invalidate(la(2))
	if c.Lookup(la(2)) != nil {
		t.Fatal("line present after Invalidate")
	}
	c.Invalidate(la(2)) // no-op must not panic
}

func TestSpecBits(t *testing.T) {
	var l LineMeta
	if l.SpecAny() {
		t.Fatal("zero LineMeta has spec bits set")
	}
	l.SpecRead = true
	if !l.SpecAny() {
		t.Fatal("SpecAny false with SpecRead set")
	}
	l.SpecWritten, l.SpecLabeled = true, true
	l.ClearSpec()
	if l.SpecAny() {
		t.Fatal("ClearSpec left bits set")
	}
}

// Property: after any sequence of inserts, (a) no two ways in a set hold the
// same tag, (b) every lookup of a previously inserted & not-yet-evicted line
// succeeds, (c) valid count never exceeds capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(16*mem.LineBytes, 2) // 8 sets × 2 ways
		live := map[mem.Addr]bool{}
		for _, a := range addrs {
			laddr := mem.LineOf(mem.Addr(a) * 8)
			if c.Lookup(laddr) != nil {
				c.Touch(c.Lookup(laddr))
				continue
			}
			var ev LineMeta
			l, evicted := c.Insert(laddr, nil, &ev)
			l.State = Shared
			if evicted {
				if !live[ev.Tag] {
					return false // evicted something never live
				}
				delete(live, ev.Tag)
			}
			live[laddr] = true
			if c.Lookup(laddr) == nil {
				return false
			}
		}
		if n := countValid(c); n > 16 || n != len(live) {
			return false
		}
		for a := range live {
			if c.Lookup(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", ReducibleU: "U"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
