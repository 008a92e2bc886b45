package dht

import (
	"rcm/overlay"
)

// Plaxton is the tree routing geometry (§3.1): node x keeps one neighbor
// per prefix level, the i-th matching x's first i−1 bits, differing at bit
// i, with a uniformly random tail. Routing corrects the leftmost differing
// bit at every step; under failure there is no fallback — if the single
// neighbor that corrects the highest-order differing bit is dead, the
// message is dropped (Fig. 4(a)).
type Plaxton struct {
	space overlay.Space
	// table[x*d + (i-1)] is node x's level-i neighbor.
	table []overlay.ID
}

var (
	_ Protocol   = (*Plaxton)(nil)
	_ Forwarder  = (*Plaxton)(nil)
	_ Maintainer = (*Plaxton)(nil)
)

// NewPlaxton builds the overlay with randomized per-level neighbors.
func NewPlaxton(cfg Config) (*Plaxton, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	d := s.Bits()
	n := s.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x706c6178746f6e) // "plaxton"
	table := make([]overlay.ID, int(n)*d)
	for x := uint64(0); x < n; x++ {
		id := overlay.ID(x)
		for i := 1; i <= d; i++ {
			// Flip bit i, then randomize everything to its right: a uniform
			// choice among the 2^{d-i} level-i candidates.
			table[int(x)*d+i-1] = s.RandomTail(s.FlipBit(id, i), i, rng)
		}
	}
	return &Plaxton{space: s, table: table}, nil
}

// Name implements Protocol.
func (p *Plaxton) Name() string { return "plaxton" }

// GeometryName implements Protocol.
func (p *Plaxton) GeometryName() string { return "tree" }

// Space implements Protocol.
func (p *Plaxton) Space() overlay.Space { return p.space }

// Degree implements Protocol.
func (p *Plaxton) Degree() int { return p.space.Bits() }

// Route implements Protocol. Each hop must correct the current leftmost
// differing bit; the unique neighbor able to do so being dead is fatal.
func (p *Plaxton) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	d := p.space.Bits()
	cur := src
	hops := 0
	for maxHops := hopCap(p.space); hops < maxHops; {
		if cur == dst {
			return hops, true
		}
		i := p.space.FirstDifferingBit(cur, dst)
		next := p.table[int(cur)*d+i-1]
		if !alive.Get(int(next)) {
			return hops, false
		}
		cur = next
		hops++
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: tree routing has exactly one
// legal next hop — the neighbor correcting the leftmost differing bit
// (Fig. 4(a)'s no-fallback property).
func (p *Plaxton) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	i := p.space.FirstDifferingBit(x, dst)
	if i == 0 {
		return buf
	}
	return append(buf, p.table[int(x)*p.space.Bits()+i-1])
}

// Join implements Maintainer: a (re)joining node rebuilds every per-level
// neighbor toward alive nodes, returning the modeled message cost.
func (p *Plaxton) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return prefixJoin(p.space, p.table, x, alive, rng)
}

// Stabilize implements Maintainer: one periodic round refreshes a single
// uniformly-chosen prefix level.
func (p *Plaxton) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return prefixRefresh(p.space, p.table, x, 1+rng.Intn(p.space.Bits()), alive, rng)
}

// Neighbors implements Protocol.
func (p *Plaxton) Neighbors(x overlay.ID) []overlay.ID {
	d := p.space.Bits()
	out := make([]overlay.ID, d)
	copy(out, p.table[int(x)*d:int(x)*d+d])
	return out
}
