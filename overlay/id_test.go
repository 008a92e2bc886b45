package overlay

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, d := range []int{0, -1, MaxBits + 1, 100} {
		if _, err := NewSpace(d); err == nil {
			t.Errorf("NewSpace(%d): want error", d)
		}
	}
	for _, d := range []int{1, 3, 16, MaxBits} {
		s, err := NewSpace(d)
		if err != nil {
			t.Fatalf("NewSpace(%d): %v", d, err)
		}
		if s.Bits() != d {
			t.Errorf("Bits() = %d, want %d", s.Bits(), d)
		}
		if s.Size() != uint64(1)<<uint(d) {
			t.Errorf("Size() = %d, want %d", s.Size(), uint64(1)<<uint(d))
		}
	}
}

func TestMustSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpace(0) did not panic")
		}
	}()
	MustSpace(0)
}

func TestBitConventionLeftToRight(t *testing.T) {
	s := MustSpace(3)
	// 011 = 3: bit1 (leftmost) = 0, bit2 = 1, bit3 = 1 (paper's Fig. 2 node).
	x := ID(3)
	if got := s.Bit(x, 1); got != 0 {
		t.Errorf("bit 1 of 011 = %d, want 0", got)
	}
	if got := s.Bit(x, 2); got != 1 {
		t.Errorf("bit 2 of 011 = %d, want 1", got)
	}
	if got := s.Bit(x, 3); got != 1 {
		t.Errorf("bit 3 of 011 = %d, want 1", got)
	}
	if got := s.String(x); got != "011" {
		t.Errorf("String(3) = %q, want 011", got)
	}
}

func TestFlipBit(t *testing.T) {
	s := MustSpace(3)
	// Flipping the leftmost bit of 011 yields 111.
	if got := s.FlipBit(3, 1); got != 7 {
		t.Errorf("flip bit1 of 011 = %s, want 111", s.String(got))
	}
	if got := s.FlipBit(3, 3); got != 2 {
		t.Errorf("flip bit3 of 011 = %s, want 010", s.String(got))
	}
	// Double flip is identity.
	f := func(x uint8, i uint8) bool {
		id := ID(x & 7)
		bit := int(i%3) + 1
		return s.FlipBit(s.FlipBit(id, bit), bit) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFirstDifferingBit(t *testing.T) {
	s := MustSpace(4)
	tests := []struct {
		a, b ID
		want int
	}{
		{0b0000, 0b0000, 0},
		{0b0000, 0b1000, 1},
		{0b0000, 0b0100, 2},
		{0b0000, 0b0010, 3},
		{0b0000, 0b0001, 4},
		{0b1010, 0b1000, 3},
		{0b0110, 0b0101, 3},
	}
	for _, tt := range tests {
		if got := s.FirstDifferingBit(tt.a, tt.b); got != tt.want {
			t.Errorf("FirstDifferingBit(%s,%s) = %d, want %d",
				s.String(tt.a), s.String(tt.b), got, tt.want)
		}
	}
}

func TestRingDist(t *testing.T) {
	s := MustSpace(4) // N=16
	tests := []struct {
		a, b ID
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, 15},
		{15, 0, 1},
		{3, 11, 8},
		{11, 3, 8},
	}
	for _, tt := range tests {
		if got := s.RingDist(tt.a, tt.b); got != tt.want {
			t.Errorf("RingDist(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRingDistWrapProperty(t *testing.T) {
	s := MustSpace(8)
	f := func(a, b uint8) bool {
		d1 := s.RingDist(ID(a), ID(b))
		d2 := s.RingDist(ID(b), ID(a))
		if a == b {
			return d1 == 0 && d2 == 0
		}
		return d1+d2 == s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORDistMetricAxioms(t *testing.T) {
	s := MustSpace(8)
	// Symmetry, identity, and the XOR triangle inequality (Kademlia §2).
	f := func(a, b, c uint8) bool {
		x, y, z := ID(a), ID(b), ID(c)
		if s.XORDist(x, y) != s.XORDist(y, x) {
			return false
		}
		if (s.XORDist(x, y) == 0) != (x == y) {
			return false
		}
		return s.XORDist(x, z) <= s.XORDist(x, y)+s.XORDist(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORDistUnicity(t *testing.T) {
	// For a fixed x and distance D there is exactly one y with d(x,y)=D —
	// the property that makes XOR routing converge.
	s := MustSpace(6)
	x := ID(0b101010)
	seen := make(map[uint64]ID, s.Size())
	for y := ID(0); uint64(y) < s.Size(); y++ {
		d := s.XORDist(x, y)
		if prev, dup := seen[d]; dup {
			t.Fatalf("distance %d reached by %d and %d", d, prev, y)
		}
		seen[d] = y
	}
}

func TestHammingDist(t *testing.T) {
	s := MustSpace(8)
	f := func(a, b uint8) bool {
		return s.HammingDist(ID(a), ID(b)) == bits.OnesCount8(a^b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomTailPreservesPrefix(t *testing.T) {
	s := MustSpace(16)
	rng := NewRNG(42)
	x := ID(0b1010_1100_0011_0101)
	for i := 0; i <= 16; i++ {
		for trial := 0; trial < 20; trial++ {
			y := s.RandomTail(x, i, rng)
			if !s.Contains(y) {
				t.Fatalf("RandomTail out of space: %d", y)
			}
			if got := s.FirstDifferingBit(x, y); got != 0 && got <= i {
				t.Fatalf("RandomTail(i=%d) differs at bit %d", i, got)
			}
		}
	}
}

func TestRandomTailFullRandomCoverage(t *testing.T) {
	// With i=0 the tail is the whole ID; all values should eventually appear.
	s := MustSpace(4)
	rng := NewRNG(7)
	seen := make(map[ID]bool)
	for trial := 0; trial < 2000; trial++ {
		seen[s.RandomTail(0, 0, rng)] = true
	}
	if len(seen) != int(s.Size()) {
		t.Errorf("RandomTail(i=0) covered %d/%d values", len(seen), s.Size())
	}
}

func TestStringRoundTrip(t *testing.T) {
	s := MustSpace(5)
	for x := ID(0); uint64(x) < s.Size(); x++ {
		str := s.String(x)
		if len(str) != 5 {
			t.Fatalf("String(%d) = %q, wrong width", x, str)
		}
		var back ID
		for _, c := range str {
			back = back<<1 | ID(c-'0')
		}
		if back != x {
			t.Fatalf("round trip %d -> %q -> %d", x, str, back)
		}
	}
}
