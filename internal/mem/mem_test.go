package mem

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a, want Addr
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {127, 64}, {128, 128},
		{0xdeadbeef, 0xdeadbec0 &^ 63},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.a, got, c.want)
		}
	}
}

func TestWordIdx(t *testing.T) {
	for i := 0; i < WordsPerLine; i++ {
		if got := WordIdx(Addr(i * 8)); got != i {
			t.Errorf("WordIdx(%d) = %d, want %d", i*8, got, i)
		}
		if got := WordIdx(Addr(1024 + i*8)); got != i {
			t.Errorf("WordIdx(%d) = %d, want %d", 1024+i*8, got, i)
		}
	}
}

func TestLineOfProperties(t *testing.T) {
	f := func(a Addr) bool {
		la := LineOf(a)
		return la <= a && a-la < LineBytes && la%LineBytes == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	if got := s.Read64(128); got != 0 {
		t.Fatalf("fresh memory = %d, want 0", got)
	}
	s.Write64(128, 42)
	s.Write64(136, 43)
	if got := s.Read64(128); got != 42 {
		t.Fatalf("Read64(128) = %d, want 42", got)
	}
	if got := s.Read64(136); got != 43 {
		t.Fatalf("Read64(136) = %d, want 43", got)
	}
	// Same line, one backing entry.
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreWordIsolation(t *testing.T) {
	// Writing one word must not disturb its line neighbors.
	f := func(idx uint8, v uint64) bool {
		s := NewStore()
		base := Addr(4096)
		for i := 0; i < WordsPerLine; i++ {
			s.Write64(base+Addr(i*8), uint64(i)+100)
		}
		i := int(idx) % WordsPerLine
		s.Write64(base+Addr(i*8), v)
		for j := 0; j < WordsPerLine; j++ {
			want := uint64(j) + 100
			if j == i {
				want = v
			}
			if s.Read64(base+Addr(j*8)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	NewStore().Read64(3)
}

func TestAllocatorAlignment(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc(10, 8)
	if a%8 != 0 {
		t.Errorf("Alloc(10,8) = %#x, not 8-aligned", uint64(a))
	}
	b := al.Alloc(1, 64)
	if b%64 != 0 {
		t.Errorf("Alloc(1,64) = %#x, not 64-aligned", uint64(b))
	}
	if b < a+10 {
		t.Errorf("allocations overlap: a=%#x..%#x b=%#x", uint64(a), uint64(a)+10, uint64(b))
	}
}

func TestAllocatorNeverOverlapsProperty(t *testing.T) {
	type req struct {
		Size  uint16
		Align uint8
	}
	f := func(reqs []req) bool {
		al := NewAllocator()
		type region struct{ lo, hi Addr }
		var regions []region
		for _, r := range reqs {
			size := int(r.Size)%512 + 1
			align := 1 << (int(r.Align) % 7) // 1..64
			a := al.Alloc(size, align)
			if a%Addr(align) != 0 {
				return false
			}
			for _, g := range regions {
				if a < g.hi && g.lo < a+Addr(size) {
					return false
				}
			}
			regions = append(regions, region{a, a + Addr(size)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorZeroPageUnused(t *testing.T) {
	al := NewAllocator()
	if a := al.Alloc(8, 8); a == 0 {
		t.Fatal("allocator handed out the null page")
	}
}

func TestAllocLinesAndWords(t *testing.T) {
	al := NewAllocator()
	a := al.AllocLines(3)
	if a%LineBytes != 0 {
		t.Errorf("AllocLines not line aligned: %#x", uint64(a))
	}
	b := al.AllocWords(5)
	if b < a+3*LineBytes {
		t.Errorf("AllocWords overlaps previous lines")
	}
	if b%WordBytes != 0 {
		t.Errorf("AllocWords not word aligned: %#x", uint64(b))
	}
}

func TestAllocatorBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc with non-power-of-two alignment did not panic")
		}
	}()
	NewAllocator().Alloc(8, 3)
}

// TestStoreResetAndStoreLine covers the epoch Reset and StoreLine's skip of
// equal writes: after Reset every line reads zero and none is present, a
// page dirtied before Reset comes back zeroed on its next write, and an
// all-zero StoreLine over an absent line leaves it absent — Len, Peek and
// ForEach (and so the memory digests) would see the difference.
func TestStoreResetAndStoreLine(t *testing.T) {
	s := NewStore()
	s.Write64(0x1000, 1)
	s.Write64(0x1040, 2)
	s.Reset()
	if s.Len() != 0 || s.Read64(0x1000) != 0 {
		t.Fatalf("after Reset: Len=%d word=%d, want 0 and 0", s.Len(), s.Read64(0x1000))
	}
	s.Write64(0x1008, 3) // revalidates the stale page
	if got := s.Read64(0x1040); got != 0 {
		t.Fatalf("stale line survived revalidation: %d", got)
	}
	if _, ok := s.Peek(0x1040); ok {
		t.Fatal("stale line present after revalidation")
	}

	var zero Line
	s.StoreLine(0x2000, &zero)
	if _, ok := s.Peek(0x2000); ok || s.Len() != 1 {
		t.Fatalf("all-zero StoreLine materialized an absent line (Len=%d)", s.Len())
	}
	v := Line{7}
	s.StoreLine(0x2000, &v)
	if l, ok := s.Peek(0x2000); !ok || *l != v || s.Len() != 2 {
		t.Fatalf("StoreLine did not write: present=%v Len=%d", ok, s.Len())
	}
	s.StoreLine(0x2000, &zero)
	if l, ok := s.Peek(0x2000); !ok || *l != zero {
		t.Fatal("StoreLine of zeros over a present line did not overwrite it")
	}
	var seen []Addr
	s.ForEach(func(a Addr, _ *Line) { seen = append(seen, a) })
	if len(seen) != 2 || seen[0] != 0x1000 || seen[1] != 0x2000 {
		t.Fatalf("ForEach saw %#x, want [0x1000 0x2000]", seen)
	}
}
