package dht

import (
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
func (h *HypercubeCAN) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	d := h.space.Bits()
	cur := src
	hops := 0
	for maxHops := hopCap(h.space); hops < maxHops; {
		if cur == dst {
			return hops, true
		}
		progressed := false
		for i := 1; i <= d; i++ {
			if h.space.Bit(cur, i) == h.space.Bit(dst, i) {
				continue
			}
			next := h.space.FlipBit(cur, i)
			if alive.Get(int(next)) {
				cur = next
				hops++
				progressed = true
				break
			}
		}
		if !progressed {
			return hops, false
		}
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the flip-neighbors of every
// differing bit, leftmost first — each reduces the Hamming distance by one,
// and the first alive candidate is Route's choice. The hypercube's neighbor
// set is structural (no tables), so there is no Maintainer to implement.
func (h *HypercubeCAN) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	d := h.space.Bits()
	for i := 1; i <= d; i++ {
		if h.space.Bit(x, i) != h.space.Bit(dst, i) {
			buf = append(buf, h.space.FlipBit(x, i))
		}
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
