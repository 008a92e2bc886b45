package overlay

import (
	"math"
	"testing"
)

func TestBitsetSetGetClear(t *testing.T) {
	b := NewBitset(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("fresh bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestBitsetCount(t *testing.T) {
	b := NewBitset(200)
	if b.Count() != 0 {
		t.Errorf("empty count = %d", b.Count())
	}
	idx := []int{0, 5, 63, 64, 100, 199}
	for _, i := range idx {
		b.Set(i)
	}
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
	b.Set(5) // idempotent
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count after re-set = %d, want %d", got, len(idx))
	}
}

func TestBitsetSetAllTrims(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := NewBitset(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Errorf("n=%d: SetAll count = %d", n, got)
		}
	}
}

func TestFillRandomAliveRate(t *testing.T) {
	rng := NewRNG(77)
	const n = 100000
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		b := NewBitset(n)
		b.FillRandomAlive(q, rng)
		got := float64(b.Count()) / n
		want := 1 - q
		if math.Abs(got-want) > 0.01 {
			t.Errorf("q=%v: alive fraction %v, want ~%v", q, got, want)
		}
	}
}

func TestFillRandomAliveOverwrites(t *testing.T) {
	rng := NewRNG(78)
	b := NewBitset(1000)
	b.SetAll()
	b.FillRandomAlive(1, rng) // everyone fails
	if b.Count() != 0 {
		t.Errorf("q=1 left %d alive", b.Count())
	}
	b.FillRandomAlive(0, rng) // nobody fails
	if b.Count() != 1000 {
		t.Errorf("q=0 alive = %d, want 1000", b.Count())
	}
}

func TestBitsetLen(t *testing.T) {
	if got := NewBitset(42).Len(); got != 42 {
		t.Errorf("Len = %d, want 42", got)
	}
}
