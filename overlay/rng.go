package overlay

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Simulations must be reproducible across runs and platforms given a seed,
// so the harness never uses the global math/rand state. RNG is not safe for
// concurrent use; derive one per goroutine with Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// splitmixGamma is splitmix64's state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	return splitmixMix(r.state)
}

// splitmixMix is splitmix64's output function of the advanced state.
func splitmixMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("overlay: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. n must be positive.
//
// Stream contract: a power of two n takes exactly one draw, the low bits of
// rng.Uint64; any other n takes one draw per attempt, in order, until an
// attempt's low product word reaches 2^64 mod n. The rejection threshold
// 2^64 mod n is below n, so the division that computes it runs only for an
// attempt whose low word is below n, with probability n/2^64.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("overlay: Uint64n with zero n")
	}
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// Used by the churn engine for session and repair timers.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Normal returns a standard normal variate via the Box–Muller transform.
// Exactly two uniforms are consumed per call (the sine branch is
// discarded), so the stream advance is fixed and runs stay reproducible.
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Harmonic returns an integer distance in [1, max] drawn from the harmonic
// distribution p(l) ∝ 1/l — the Symphony shortcut distribution (§3.5). It
// uses the standard inverse-CDF construction l = exp(U · ln(max)).
func (r *RNG) Harmonic(max uint64) uint64 {
	if max <= 1 {
		return 1
	}
	l := uint64(math.Exp(r.Float64() * math.Log(float64(max))))
	if l < 1 {
		l = 1
	}
	if l > max {
		l = max
	}
	return l
}

// Split returns a new independent generator derived from this one. The
// parent advances by one step, so repeated Splits yield distinct streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x6a09e667f3bcc909)
}
