// Package overlay provides the identifier-space substrate shared by the five
// DHT protocol simulators: d-bit node identifiers, the three distance metrics
// used by the paper's geometries (ring, XOR, Hamming), prefix operations with
// the paper's left-to-right bit convention, a deterministic RNG, and compact
// alive-node bitsets for failure injection.
package overlay

import (
	"fmt"
	"math/bits"
)

// MaxBits is the widest supported identifier, constrained by the uint64
// representation. Fully-populated simulations are memory-bound long before
// this limit (2^16 nodes is the paper's simulation size, Fig. 6).
const MaxBits = 62

// ID is a node identifier in a d-bit space, stored in the low d bits.
// Following the paper (§3), bit 1 is the most significant (leftmost) bit and
// bits are corrected from left to right.
type ID uint64

// Space describes a fully-populated d-bit identifier space with N = 2^d
// nodes, identifiers 0..N-1.
type Space struct {
	bits int
	size uint64
	mask uint64
}

// NewSpace returns the identifier space with d-bit identifiers.
// d must be in [1, MaxBits].
func NewSpace(d int) (Space, error) {
	if d < 1 || d > MaxBits {
		return Space{}, fmt.Errorf("overlay: identifier length %d out of range [1,%d]", d, MaxBits)
	}
	return Space{
		bits: d,
		size: uint64(1) << uint(d),
		mask: (uint64(1) << uint(d)) - 1,
	}, nil
}

// MustSpace is NewSpace for statically valid d; it panics on invalid input
// and is intended for tests and package-internal construction.
func MustSpace(d int) Space {
	s, err := NewSpace(d)
	if err != nil {
		panic(err)
	}
	return s
}

// Bits returns the identifier length d.
func (s Space) Bits() int { return s.bits }

// Size returns N = 2^d.
func (s Space) Size() uint64 { return s.size }

// MaxHops is the route-length bound every executor enforces, eventsim
// and the live node alike: 4·d + 16, far above any greedy route in a
// d-bit space, so it only ever stops a routing loop.
func (s Space) MaxHops() int { return 4*s.bits + 16 }

// Contains reports whether x is a valid identifier in this space.
func (s Space) Contains(x ID) bool { return uint64(x) <= s.mask }

// Bit returns bit i of x using the paper's convention: i is 1-based counting
// from the most significant bit, so Bit(x, 1) is the leftmost bit.
func (s Space) Bit(x ID, i int) uint64 {
	return (uint64(x) >> uint(s.bits-i)) & 1
}

// FlipBit returns x with bit i flipped (1-based from the left).
func (s Space) FlipBit(x ID, i int) ID {
	return x ^ ID(uint64(1)<<uint(s.bits-i))
}

// FirstDifferingBit returns the 1-based (from the left) index of the first
// bit where a and b differ, or 0 when a == b. This is the "highest-order
// differing bit" that tree and XOR routing must correct first.
func (s Space) FirstDifferingBit(a, b ID) int {
	x := uint64(a^b) & s.mask
	if x == 0 {
		return 0
	}
	// Leading zeros within the d-bit window.
	lz := bits.LeadingZeros64(x) - (64 - s.bits)
	return lz + 1
}

// RingDist returns the clockwise ring distance from a to b: (b - a) mod 2^d.
// Note it is asymmetric, matching Chord/Symphony's unidirectional rings.
func (s Space) RingDist(a, b ID) uint64 {
	return (uint64(b) - uint64(a)) & s.mask
}

// XORDist returns the Kademlia XOR distance between a and b.
func (s Space) XORDist(a, b ID) uint64 {
	return uint64(a^b) & s.mask
}

// HammingDist returns the number of differing bits between a and b — the
// hop-count metric of the hypercube (CAN) geometry.
func (s Space) HammingDist(a, b ID) int {
	return bits.OnesCount64(uint64(a^b) & s.mask)
}

// RandomTail returns an identifier that matches x on the first i bits
// (1-based, inclusive) and has uniformly random remaining bits, drawn from
// rng. With i = 0 the result is a uniformly random identifier.
func (s Space) RandomTail(x ID, i int, rng *RNG) ID {
	if i >= s.bits {
		return x & ID(s.mask)
	}
	keep := s.bits - i // number of low bits to randomize
	lowMask := (uint64(1) << uint(keep)) - 1
	return ID((uint64(x) &^ lowMask) | (rng.Uint64() & lowMask))
}

// String renders x as a d-bit binary string, matching the paper's figures
// (e.g. "011" in the 8-node hypercube example).
func (s Space) String(x ID) string {
	buf := make([]byte, s.bits)
	for i := 1; i <= s.bits; i++ {
		if s.Bit(x, i) == 1 {
			buf[i-1] = '1'
		} else {
			buf[i-1] = '0'
		}
	}
	return string(buf)
}
