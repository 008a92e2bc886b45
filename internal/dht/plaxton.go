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
	// table.row(x)[i-1] is node x's level-i neighbor.
	table table
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
	rng := overlay.NewRNG(cfg.Seed ^ 0x706c6178746f6e) // "plaxton"
	return &Plaxton{space: s, table: newPrefixTable(s, rng)}, nil
}

// Name implements Protocol.
func (p *Plaxton) Name() string { return "plaxton" }

// Space implements Protocol.
func (p *Plaxton) Space() overlay.Space { return p.space }

// Route implements Protocol. Each hop must correct the current leftmost
// differing bit; the unique neighbor able to do so being dead is fatal.
func (p *Plaxton) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := hopCap(p.space); hops < maxHops; hops++ {
		i := p.space.FirstDifferingBit(cur, dst)
		if i == 0 {
			return hops, cur == dst // an out-of-space dst is never reached
		}
		next := p.table.row(int(cur))[i-1]
		if !alive.Get(int(next)) {
			return hops, false
		}
		cur = overlay.ID(next)
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
	return append(buf, overlay.ID(p.table.row(int(x))[i-1]))
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
func (p *Plaxton) Neighbors(x overlay.ID) []overlay.ID { return p.table.neighbors(int(x)) }
