package overlay

import (
	"math"
	"math/bits"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGKnownVector(t *testing.T) {
	// splitmix64 with seed 0: first output is a published test vector.
	r := NewRNG(0)
	if got := r.Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("splitmix64(0) first output = %#x, want 0xe220a8397b1dcdaf", got)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(99)
	for _, n := range []int{1, 2, 7, 100} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-ish sanity: each bucket of 10 should get ~10% of draws.
	r := NewRNG(4242)
	const draws = 100000
	counts := make([]int, 10)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(10)]++
	}
	for b, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want ~0.1", b, frac)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(7)
	const draws = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < draws; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		if got := float64(hits) / draws; math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) rate = %v", p, got)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(8)
	const draws = 200000
	mean := 3.5
	var sum float64
	for i := 0; i < draws; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if got := sum / draws; math.Abs(got-mean) > 0.05 {
		t.Errorf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestHarmonicRangeAndShape(t *testing.T) {
	r := NewRNG(9)
	const draws = 200000
	const maxDist = 1 << 16
	countLow, countHigh := 0, 0
	for i := 0; i < draws; i++ {
		l := r.Harmonic(maxDist)
		if l < 1 || l > maxDist {
			t.Fatalf("Harmonic out of range: %d", l)
		}
		// p(l ∝ 1/l) ⇒ mass in [1,256) equals mass in [256, 65536) equals 1/2.
		if l < 256 {
			countLow++
		} else {
			countHigh++
		}
	}
	lowFrac := float64(countLow) / draws
	if math.Abs(lowFrac-0.5) > 0.02 {
		t.Errorf("harmonic mass below sqrt(max) = %v, want ~0.5", lowFrac)
	}
	_ = countHigh
}

func TestHarmonicDegenerate(t *testing.T) {
	r := NewRNG(10)
	if got := r.Harmonic(1); got != 1 {
		t.Errorf("Harmonic(1) = %d, want 1", got)
	}
	if got := r.Harmonic(0); got != 1 {
		t.Errorf("Harmonic(0) = %d, want 1", got)
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	parent := NewRNG(11)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams overlapped %d times", same)
	}
}

// TestNormalMoments: the Box–Muller variate must have mean ≈ 0 and
// variance ≈ 1, consume exactly two uniforms per call (fixed stream
// advance), and stay finite at the log pole.
func TestNormalMoments(t *testing.T) {
	rng := NewRNG(17)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		z := rng.Normal()
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("Normal() = %v", z)
		}
		sum += z
		sumSq += z * z
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance %v, want ≈ 1", variance)
	}

	// Fixed stream advance: one Normal == two Uint64 draws.
	a, b := NewRNG(99), NewRNG(99)
	a.Normal()
	b.Uint64()
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Error("Normal() does not advance the stream by exactly two draws")
	}
}

// uint64nDivideEveryCall is Uint64n's reference: the power-of-two mask,
// else Lemire's rejection with the threshold 2^64 mod n computed on every
// call.
func uint64nDivideEveryCall(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// checkUint64nMatches draws count values from n with Uint64n and with the
// reference from one seed, and fails unless the outputs and the final
// state agree.
func checkUint64nMatches(t *testing.T, n uint64, seed uint64, count int) {
	t.Helper()
	got, want := NewRNG(seed), NewRNG(seed)
	for i := 0; i < count; i++ {
		if g, w := got.Uint64n(n), uint64nDivideEveryCall(want, n); g != w {
			t.Fatalf("n=%d seed=%d draw %d: Uint64n %d, reference %d", n, seed, i, g, w)
		}
	}
	if got.state != want.state {
		t.Fatalf("n=%d seed=%d: final RNG state %#x, reference %#x", n, seed, got.state, want.state)
	}
}

// TestUint64nMatchesDivideEveryCall holds the division-free draw to the
// reference in outputs and stream. 2^63+1 and 3·2^62 reject about half and
// a quarter of their attempts, so runs of rejections are common there and a
// draw that stops re-checking after one retry fails.
func TestUint64nMatchesDivideEveryCall(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, 6, 7, 10, 1000, 1 << 16, 1<<32 - 1, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, 3 << 62, 1<<64 - 1}
	rng := NewRNG(13)
	for i := 0; i < 64; i++ {
		ns = append(ns, rng.Uint64()>>uint(rng.Uint64n(64)))
	}
	for _, n := range ns {
		if n == 0 {
			continue
		}
		checkUint64nMatches(t, n, n^0x5eed, 4000)
	}
}
