package dht

import (
	"rcm/overlay"
)

// Chord is the ring routing geometry (§3.4), randomized-finger variant:
// finger i of node x points to a node at uniform clockwise distance in
// [2^{i−1}, 2^i). Finger 1 is therefore always the immediate successor.
// Routing is greedy clockwise without overshooting the target; progress
// made by suboptimal hops is preserved (the structural property that makes
// the paper's ring analysis a lower bound, §4.3.3).
type Chord struct {
	space overlay.Space
	// table[x*d + (i-1)] is node x's finger i.
	table []overlay.ID
}

var (
	_ Protocol   = (*Chord)(nil)
	_ Forwarder  = (*Chord)(nil)
	_ Maintainer = (*Chord)(nil)
)

// NewChord builds the overlay with randomized fingers.
func NewChord(cfg Config) (*Chord, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	d := s.Bits()
	n := s.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x63686f7264) // "chord"
	table := make([]overlay.ID, int(n)*d)
	for x := uint64(0); x < n; x++ {
		for i := 1; i <= d; i++ {
			lo := uint64(1) << uint(i-1)
			span := lo // window [2^{i-1}, 2^i) has width 2^{i-1}
			dist := lo + rng.Uint64n(span)
			table[int(x)*d+i-1] = overlay.ID((x + dist) & (n - 1))
		}
	}
	return &Chord{space: s, table: table}, nil
}

// Name implements Protocol.
func (c *Chord) Name() string { return "chord" }

// GeometryName implements Protocol.
func (c *Chord) GeometryName() string { return "ring" }

// Space implements Protocol.
func (c *Chord) Space() overlay.Space { return c.space }

// Degree implements Protocol.
func (c *Chord) Degree() int { return c.space.Bits() }

// Route implements Protocol: take the alive finger that lands closest to
// dst without passing it; fail when no alive finger makes clockwise
// progress. The successor finger guarantees progress whenever it is alive.
func (c *Chord) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	d := c.space.Bits()
	cur := src
	hops := 0
	for maxHops := hopCap(c.space); hops < maxHops; {
		if cur == dst {
			return hops, true
		}
		remaining := c.space.RingDist(cur, dst)
		var best overlay.ID
		bestRemaining := remaining
		found := false
		base := int(cur) * d
		for i := 0; i < d; i++ {
			f := c.table[base+i]
			// Overshooting fingers (past dst clockwise) are not eligible.
			if c.space.RingDist(cur, f) > remaining {
				continue
			}
			if !alive.Get(int(f)) {
				continue
			}
			if nr := c.space.RingDist(f, dst); nr < bestRemaining {
				bestRemaining = nr
				best = f
				found = true
			}
		}
		if !found {
			return hops, false
		}
		cur = best
		hops++
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the non-overshooting fingers of
// x, deduplicated, ordered by resulting clockwise distance to dst (ties keep
// finger order) — so the first alive candidate is exactly Route's greedy
// choice.
func (c *Chord) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	remaining := c.space.RingDist(x, dst)
	if remaining == 0 {
		return buf
	}
	d := c.space.Bits()
	start := len(buf)
	base := int(x) * d
outer:
	for i := 0; i < d; i++ {
		f := c.table[base+i]
		if f == x || c.space.RingDist(x, f) > remaining {
			continue // self or overshooting: no eligible progress
		}
		for _, prev := range buf[start:] {
			if prev == f {
				continue outer
			}
		}
		// Stable insertion by resulting distance (ascending).
		nr := c.space.RingDist(f, dst)
		buf = append(buf, f)
		j := len(buf) - 1
		for j > start && c.space.RingDist(buf[j-1], dst) > nr {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = f
	}
	return buf
}

// Join implements Maintainer: a (re)joining node rebuilds all d fingers
// toward alive nodes, returning the modeled message cost.
func (c *Chord) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	d := c.space.Bits()
	n := c.space.Size()
	cost := 0
	for i := 1; i <= d; i++ {
		lo := uint64(1) << uint(i-1)
		id, attempts := drawAliveCost(alive, func() overlay.ID {
			return overlay.ID((uint64(x) + lo + rng.Uint64n(lo)) & (n - 1))
		})
		c.table[int(x)*d+i-1] = id
		cost += probeCost(attempts)
	}
	return cost
}

// Stabilize implements Maintainer: one periodic round refreshes a single
// uniformly-chosen finger (Chord's fix_fingers).
func (c *Chord) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	d := c.space.Bits()
	n := c.space.Size()
	i := 1 + rng.Intn(d)
	lo := uint64(1) << uint(i-1)
	id, attempts := drawAliveCost(alive, func() overlay.ID {
		return overlay.ID((uint64(x) + lo + rng.Uint64n(lo)) & (n - 1))
	})
	c.table[int(x)*d+i-1] = id
	return probeCost(attempts)
}

// Neighbors implements Protocol.
func (c *Chord) Neighbors(x overlay.ID) []overlay.ID {
	d := c.space.Bits()
	out := make([]overlay.ID, d)
	copy(out, c.table[int(x)*d:int(x)*d+d])
	return out
}
