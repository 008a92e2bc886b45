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

// fillBernoulli is FillRandomAlive's reference: one Bernoulli(1-q) coin
// per bit, in index order.
func fillBernoulli(b *Bitset, q float64, rng *RNG) {
	for i := 0; i < b.Len(); i++ {
		if rng.Bernoulli(1 - q) {
			b.Set(i)
		} else {
			b.Clear(i)
		}
	}
}

// checkFillMatchesBernoulli fills a bitset of n bits, dirtied first, with
// the kernel and with the reference from one seed, and fails unless every
// bit, the generator's final state and AppendSet's list agree.
func checkFillMatchesBernoulli(t *testing.T, n int, q float64, seed uint64) {
	t.Helper()
	got, want := NewBitset(n), NewBitset(n)
	for i := 0; i < n; i += 3 {
		got.Set(i)
	}
	rg, rw := NewRNG(seed), NewRNG(seed)
	got.FillRandomAlive(q, rg)
	fillBernoulli(want, q, rw)
	for i := 0; i < n; i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("n=%d q=%v seed=%d: bit %d = %v, Bernoulli reference %v", n, q, seed, i, got.Get(i), want.Get(i))
		}
	}
	if rg.state != rw.state {
		t.Fatalf("n=%d q=%v seed=%d: final RNG state %#x, reference %#x", n, q, seed, rg.state, rw.state)
	}
	set := got.AppendSet(nil)
	k := 0
	for i := 0; i < n; i++ {
		if !want.Get(i) {
			continue
		}
		if k >= len(set) || set[k] != ID(i) {
			t.Fatalf("n=%d q=%v seed=%d: AppendSet %v, set bit %d missing at position %d", n, q, seed, set, i, k)
		}
		k++
	}
	if k != len(set) {
		t.Fatalf("n=%d q=%v seed=%d: AppendSet listed %d bits, %d are set", n, q, seed, len(set), k)
	}
}

// TestFillRandomAliveMatchesBernoulli holds the branch-free kernel to the
// per-bit Bernoulli loop, bit for bit and in the generator's final state,
// across partial and whole words and at both ends of q.
func TestFillRandomAliveMatchesBernoulli(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 16} {
		for _, q := range []float64{0, 1e-12, 0.05, 0.3, 0.5, 0.75, 1 - 1e-12, 1, math.NaN(), -0.5, 1.5} {
			checkFillMatchesBernoulli(t, n, q, uint64(n)*31+7)
		}
	}
}

// TestCoinThresholdBoundary holds coinThreshold's t to (t−1)/2^53 < p ≤
// t/2^53 and checks Float64's comparison at the two draws where the coin
// can turn: k = t−1 must land (k/2^53 < p) and k = t must not. Both sides
// are monotone in k, so the two draws decide every other. Dyadic p sit
// exactly on a 2^-53 step, where ceil and floor agree; their Nextafter
// neighbours do not, so a floor in place of ceil fails here.
func TestCoinThresholdBoundary(t *testing.T) {
	base := []float64{0x1p-1074, 0x1p-60, 0x1p-53, 0x1p-52, 3 * 0x1p-53, 1e-12, 0.05, 0.25, 0.3, 0.5, 0.7, 0.75, 1 - 1e-12, 1 - 0x1p-52, 1 - 0x1p-53}
	var ps []float64
	for _, p := range base {
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	rng := NewRNG(12)
	for i := 0; i < 1000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		if !(p > 0 && p < 1) {
			continue
		}
		th := coinThreshold(p)
		if th == 0 || th > 1<<53 {
			t.Fatalf("p=%v: threshold %d outside [1, 2^53]", p, th)
		}
		lo, hi := float64(th-1)/(1<<53), float64(th)/(1<<53)
		if !(lo < p && p <= hi) {
			t.Fatalf("p=%v (%#x): threshold %d gives (%v, %v], which does not hold p", p, math.Float64bits(p), th, lo, hi)
		}
	}
	if got := coinThreshold(math.NaN()); got != 0 {
		t.Errorf("NaN threshold %d, want 0", got)
	}
}
