package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"commtm/internal/mem"
)

// resetGeoms are the geometries the Reset-equivalence checks run on: a tiny
// 2-way cache that evicts constantly, an L1-like 4-way one, and a 16-way one
// whose long LRU scans exercise the avoid-predicate fallback.
var resetGeoms = []struct{ sets, ways int }{{8, 2}, {64, 4}, {4, 16}}

// opBytes is the encoded size of one cache operation (see step).
const opBytes = 4

var (
	stepAvoids = []func(*LineMeta) bool{nil, AvoidU, AvoidSpec, AvoidSpecOrU}
	stepStates = []State{Invalid, Shared, Exclusive, Modified, ReducibleU}
)

// stepObs is everything one operation lets a caller observe.
type stepObs struct {
	found     bool     // Lookup hit (or Insert ran)
	way       int      // flat index of the line found or inserted
	line      LineMeta // that line after the operation
	hadVictim bool
	ev        LineMeta
}

// step decodes one operation from op (opBytes long) and applies it to c:
// op[0] picks Insert-or-Touch, Touch, Invalidate or a write of the line's
// state, label, dirty and speculative bits and one data word; op[1:3] picks
// a line among three times the cache's capacity (so sets fill and evict);
// op[3] is the operation's argument.
func step(c *Cache, op []byte) stepObs {
	nlines := len(c.lines)
	addr := mem.Addr(int(binary.LittleEndian.Uint16(op[1:3]))%(3*nlines)) * mem.LineBytes
	arg := op[3]
	var o stepObs
	l := c.Lookup(addr)
	switch op[0] % 4 {
	case 0: // a fill on a miss, as the memory system does
		if l == nil {
			l, o.hadVictim = c.Insert(addr, stepAvoids[arg%4], &o.ev)
			writeLine(l, arg>>2)
		} else {
			c.Touch(l)
		}
	case 1:
		if l != nil {
			c.Touch(l)
		}
	case 2:
		c.Invalidate(addr)
		l = nil
	case 3:
		if l != nil {
			writeLine(l, arg)
		}
	}
	if l != nil {
		o.found, o.way, o.line = true, wayOf(c, addr, l), *l
	}
	return o
}

// writeLine sets the caller-owned fields of l from arg. It may leave the line
// Invalid, so tagged-but-Invalid ways are covered too.
func writeLine(l *LineMeta, arg byte) {
	l.State = stepStates[int(arg)%len(stepStates)]
	l.Label = NoLabel
	if l.State == ReducibleU {
		l.Label = int8(arg>>3) & 3
	}
	l.Dirty = arg&0x20 != 0
	l.SpecRead, l.SpecWritten, l.SpecLabeled = arg&0x40 != 0, arg&0x80 != 0, arg&0x60 == 0x60
	l.Data[arg%mem.WordsPerLine] = uint64(arg) * 0x9e3779b97f4a7c15
}

// checkPristine reports how c differs from a fresh New of its geometry.
func checkPristine(c *Cache) error {
	for i := range c.lines {
		if c.lines[i] != (LineMeta{}) || c.tags[i] != 0 {
			return fmt.Errorf("way %d (set %d) not zero: %+v tag %#x", i, i/c.ways, c.lines[i], c.tags[i])
		}
	}
	for s, t := range c.touched {
		if t {
			return fmt.Errorf("set %d still marked touched", s)
		}
	}
	if c.tick != 0 || len(c.dirty) != 0 {
		return fmt.Errorf("tick %d, %d dirty sets, want 0, 0", c.tick, len(c.dirty))
	}
	return nil
}

// checkResetMatchesNew dirties a cache with the dirty operations and Resets
// it, then runs the replay operations on it and on a fresh cache of the same
// geometry side by side: every observation and the final arrays must agree.
// Both are Reset once more at the end, which must leave both pristine.
func checkResetMatchesNew(sets, ways int, dirty, replay []byte) error {
	reused := New(sets*ways*mem.LineBytes, ways)
	for i := 0; i+opBytes <= len(dirty); i += opBytes {
		step(reused, dirty[i:i+opBytes])
	}
	reused.Reset()
	if err := checkPristine(reused); err != nil {
		return fmt.Errorf("right after Reset: %v", err)
	}
	fresh := New(sets*ways*mem.LineBytes, ways)
	for i := 0; i+opBytes <= len(replay); i += opBytes {
		op := replay[i : i+opBytes]
		if got, want := step(reused, op), step(fresh, op); got != want {
			return fmt.Errorf("replay op %d %v: Reset cache observed %+v, fresh cache %+v", i/opBytes, op, got, want)
		}
	}
	for i := range fresh.lines {
		if reused.lines[i] != fresh.lines[i] || reused.tags[i] != fresh.tags[i] {
			return fmt.Errorf("after replay, way %d: Reset cache %+v tag %#x, fresh %+v tag %#x",
				i, reused.lines[i], reused.tags[i], fresh.lines[i], fresh.tags[i])
		}
	}
	for _, c := range []*Cache{reused, fresh} {
		c.Reset()
		if err := checkPristine(c); err != nil {
			return fmt.Errorf("second Reset: %v", err)
		}
	}
	return nil
}

// TestResetMatchesNew: a cache Reset after any operation sequence behaves
// exactly like a freshly constructed one.
func TestResetMatchesNew(t *testing.T) {
	for _, g := range resetGeoms {
		for seed := uint64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewPCG(seed, uint64(g.sets*g.ways)))
			ops := func() []byte {
				b := make([]byte, opBytes*r.IntN(8*g.sets*g.ways))
				for i := range b {
					b[i] = byte(r.Uint32())
				}
				return b
			}
			if err := checkResetMatchesNew(g.sets, g.ways, ops(), ops()); err != nil {
				t.Fatalf("%d sets × %d ways, seed %d: %v", g.sets, g.ways, seed, err)
			}
		}
	}
}

func FuzzResetMatchesNew(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 9, 0, 3}, []byte{0, 1, 0, 2})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 3, 0, 0, 0xff, 2, 0, 0, 0}, []byte{0, 0, 0, 4, 1, 0, 0, 0})
	f.Add(uint8(2), []byte{0, 4, 0, 1, 0, 8, 0, 5, 0, 12, 0, 9}, []byte{0, 16, 0, 13, 0, 20, 0, 1})
	f.Fuzz(func(t *testing.T, geom uint8, dirty, replay []byte) {
		g := resetGeoms[int(geom)%len(resetGeoms)]
		if err := checkResetMatchesNew(g.sets, g.ways, dirty, replay); err != nil {
			t.Fatalf("%d sets × %d ways: %v", g.sets, g.ways, err)
		}
	})
}
