package overlay

import (
	"math"
	"math/bits"
)

// Bitset is a fixed-size bit vector indexed by node identifier, used to
// represent the set of alive nodes during failure injection. It is read-only
// concurrently safe once constructed; mutation is not synchronized.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim clears any bits above n in the last word so Count stays exact.
func (b *Bitset) trim() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// FillRandomAlive sets each bit independently with probability 1-q (the
// static-resilience failure model: each node fails with probability q).
//
// Stream contract: it makes one rng.Uint64 draw per bit, in index order, and
// bit i is set exactly when Bernoulli(1-q) would have returned true on that
// draw, so the bits and the generator's final state equal a per-bit
// Bernoulli(1-q) loop's. When 1-q ≤ 0 or 1-q ≥ 1 it draws nothing and
// clears or sets every bit, as Bernoulli does; a NaN q draws every bit and
// sets none, as Bernoulli does.
//
// Float64() < p compares k/2^53 against p for the integer k = u>>11, which
// holds exactly when k < ceil(p·2^53) (the product is exact: p·2^53 only
// rescales p). So each coin is one integer compare against coinThreshold,
// folded into the word without a branch, and each word is stored once.
func (b *Bitset) FillRandomAlive(q float64, rng *RNG) {
	p := 1 - q
	switch {
	case p <= 0:
		clear(b.words)
		return
	case p >= 1:
		b.SetAll()
		return
	}
	t := coinThreshold(p)
	s := rng.state
	for wi := range b.words {
		k := 64
		if wi == len(b.words)-1 && b.n&63 != 0 {
			k = b.n & 63
		}
		var w uint64
		for j := 0; j < k; j++ {
			s += splitmixGamma
			z := splitmixMix(s)
			// z>>11 - t wraps to a value with its top bit set exactly when
			// z>>11 < t, both being at most 2^53.
			w |= ((z>>11 - t) >> 63) << uint(j)
		}
		b.words[wi] = w
	}
	rng.state = s
}

// coinThreshold returns the t for which Float64() < p holds exactly when
// the draw's top 53 bits are below t, for p in (0, 1): t = ceil(p·2^53),
// so (t−1)/2^53 < p ≤ t/2^53. A NaN p gives 0, which no draw is below.
func coinThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// AppendSet appends the index of every set bit to dst, ascending, and
// returns the extended slice. It walks each nonzero word's set bits by
// trailing-zero count, so its cost follows the set bits, not Len.
func (b *Bitset) AppendSet(dst []ID) []ID {
	for wi, w := range b.words {
		base := ID(wi << 6)
		for w != 0 {
			dst = append(dst, base+ID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
