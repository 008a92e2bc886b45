package overlay

import "math/bits"

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
func (b *Bitset) FillRandomAlive(q float64, rng *RNG) {
	for i := 0; i < b.n; i++ {
		if rng.Bernoulli(1 - q) {
			b.Set(i)
		} else {
			b.Clear(i)
		}
	}
}
