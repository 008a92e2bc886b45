package dht

import (
	"math/bits"

	"rcm/overlay"
)

// HypercubeCAN is the hypercube routing geometry the paper uses to model CAN
// (§3.2): node identifiers are corners of the d-cube, each node's neighbors
// are the d identifiers at Hamming distance one, and greedy routing corrects
// any remaining differing bit. The neighbor set is deterministic, so no
// tables are stored; neighbors are computed by flipping bits.
//
// Under failure the route proceeds if any alive neighbor reduces the
// Hamming distance to the target, matching the Fig. 4(b) chain where a
// phase with m bits left has m usable neighbors. Ties are broken toward the
// highest-order differing bit for reproducibility.
type HypercubeCAN struct {
	space overlay.Space
}

var (
	_ Protocol  = (*HypercubeCAN)(nil)
	_ Forwarder = (*HypercubeCAN)(nil)
)

// NewHypercubeCAN builds the overlay.
func NewHypercubeCAN(cfg Config) (*HypercubeCAN, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	return &HypercubeCAN{space: s}, nil
}

// Name implements Protocol.
func (h *HypercubeCAN) Name() string { return "can" }

// Space implements Protocol.
func (h *HypercubeCAN) Space() overlay.Space { return h.space }

// Route implements Protocol: correct the leftmost differing bit whose
// flip-neighbor is alive; fail when every differing bit's neighbor is dead.
// The differing bits are the set bits of cur ⊕ dst, walked from the top.
func (h *HypercubeCAN) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
hop:
	for maxHops := h.space.MaxHops(); hops <= maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		for diff := h.space.XORDist(cur, dst); diff != 0; {
			bit := uint64(1) << uint(bits.Len64(diff)-1)
			if next := cur ^ overlay.ID(bit); alive.Get(int(next)) {
				cur = next
				continue hop
			}
			diff &^= bit
		}
		return hops, false
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the flip-neighbors of every
// differing bit, leftmost first — each reduces the Hamming distance by one,
// and the first alive candidate is Route's choice. The hypercube's neighbor
// set is structural (no tables), so there is no Maintainer to implement.
func (h *HypercubeCAN) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	for diff := h.space.XORDist(x, dst); diff != 0; {
		bit := uint64(1) << uint(bits.Len64(diff)-1)
		buf = append(buf, x^overlay.ID(bit))
		diff &^= bit
	}
	return buf
}

// Neighbors implements Protocol: the d Hamming-1 identifiers.
func (h *HypercubeCAN) Neighbors(x overlay.ID) []overlay.ID {
	d := h.space.Bits()
	out := make([]overlay.ID, d)
	for i := 1; i <= d; i++ {
		out[i-1] = h.space.FlipBit(x, i)
	}
	return out
}
