package dht

import (
	"fmt"

	"rcm/overlay"
)

// ChordWithSuccessors is Chord extended with a successor list — the
// standard fault-tolerance option the paper's §1 points at: "the designer
// can always add enough sequential neighbors to achieve an acceptable
// routability ... for a maximum network size". Each node keeps its d
// randomized fingers plus the s nodes immediately following it on the ring.
// Routing is the same greedy-without-overshoot rule over the union.
//
// With s = 1 this is exactly Chord (finger 1 is already the successor).
type ChordWithSuccessors struct {
	space      overlay.Space
	successors int
	// table.row(x) holds s successors then d fingers.
	table table
}

var _ Protocol = (*ChordWithSuccessors)(nil)

// NewChordWithSuccessors builds the overlay with s >= 1 sequential
// neighbors per node.
func NewChordWithSuccessors(cfg Config, s int) (*ChordWithSuccessors, error) {
	sp, err := space(cfg)
	if err != nil {
		return nil, err
	}
	if s < 1 || uint64(s) >= sp.Size() {
		return nil, fmt.Errorf("dht: successor list length %d out of range [1, %d)", s, sp.Size())
	}
	d := sp.Bits()
	n := sp.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x63686f72647363) // "chordsc"
	t := newTable(int(n), s+d)
	for x := uint64(0); x < n; x++ {
		row := t.row(int(x))
		for j := 1; j <= s; j++ {
			row[j-1] = uint32((x + uint64(j)) & (n - 1))
		}
		for i := 1; i <= d; i++ {
			lo := uint64(1) << uint(i-1)
			row[s+i-1] = uint32((x + lo + rng.Uint64n(lo)) & (n - 1))
		}
	}
	return &ChordWithSuccessors{space: sp, successors: s, table: t}, nil
}

// Name implements Protocol.
func (c *ChordWithSuccessors) Name() string { return "chord+succ" }

// Space implements Protocol.
func (c *ChordWithSuccessors) Space() overlay.Space { return c.space }

// Route implements Protocol: greedy clockwise over alive successors and
// fingers without overshooting.
func (c *ChordWithSuccessors) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := hopCap(c.space); hops < maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		next, ok := greedyRingHop(c.space, c.table.row(int(cur)), cur, dst, alive)
		if !ok {
			return hops, false
		}
		cur = next
	}
	return hops, false
}

// Neighbors implements Protocol.
func (c *ChordWithSuccessors) Neighbors(x overlay.ID) []overlay.ID {
	return c.table.neighbors(int(x))
}
