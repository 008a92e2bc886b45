package dht

import (
	"math/bits"

	"rcm/overlay"
)

// Chord is the ring routing geometry (§3.4), randomized-finger variant:
// finger i of node x points to a node at uniform clockwise distance in
// [2^{i−1}, 2^i). Finger 1 is therefore always the immediate successor.
// Routing is greedy clockwise without overshooting the target; progress
// made by suboptimal hops is preserved (the structural property that makes
// the paper's ring analysis a lower bound, §4.3.3).
//
// The constructor and both Maintainer methods keep every finger inside its
// window (the invariant stated on table), and forwarding is derived from
// that rather than from a scan: see eligible.
type Chord struct {
	space overlay.Space
	// table.row(x)[i-1] is node x's finger i.
	table table
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
	n := s.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x63686f7264) // "chord"
	t := newTable(int(n), s.Bits())
	for x := uint64(0); x < n; x++ {
		row := t.row(int(x))
		for i := range row {
			// Finger i+1: window [2^i, 2^{i+1}), width 2^i. The width is a
			// power of two, so the mask is the draw Uint64n(lo) makes.
			lo := uint64(1) << uint(i)
			row[i] = uint32((x + lo + rng.Uint64()&(lo-1)) & (n - 1))
		}
	}
	return &Chord{space: s, table: t}, nil
}

// Name implements Protocol.
func (c *Chord) Name() string { return "chord" }

// Space implements Protocol.
func (c *Chord) Space() overlay.Space { return c.space }

// eligible returns the fingers of x that do not overshoot dst, in finger
// order. With 2^{m−1} ≤ remaining < 2^m the window invariant decides all
// but one without reading them: fingers 1…m−1 fall short of dst, fingers
// beyond m pass it, and finger m takes one compare. Clockwise distance
// rises with the finger index, so the last eligible finger lands closest
// to dst and the walk from last to first is the preference order.
func (c *Chord) eligible(x, dst overlay.ID) []uint32 {
	remaining := c.space.RingDist(x, dst)
	m := bits.Len64(remaining)
	if m == 0 {
		return nil
	}
	row := c.table.row(int(x))
	if c.space.RingDist(x, overlay.ID(row[m-1])) > remaining {
		m--
	}
	return row[:m]
}

// Route implements Protocol: take the alive finger that lands closest to
// dst without passing it; fail when no alive finger makes clockwise
// progress. The successor finger guarantees progress whenever it is alive.
func (c *Chord) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := c.space.MaxHops(); hops <= maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		fingers := c.eligible(cur, dst)
		i := len(fingers) - 1
		for i >= 0 && !alive.Get(int(fingers[i])) {
			i--
		}
		if i < 0 {
			return hops, false
		}
		cur = overlay.ID(fingers[i])
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the non-overshooting fingers of
// x ordered by resulting clockwise distance to dst — so the first alive
// candidate is exactly Route's greedy choice. The windows are disjoint and
// exclude x, so the list has no duplicates and never contains x.
func (c *Chord) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	fingers := c.eligible(x, dst)
	for i := len(fingers) - 1; i >= 0; i-- {
		buf = append(buf, overlay.ID(fingers[i]))
	}
	return buf
}

// refresh re-draws finger i of x inside its window, preferring alive
// nodes, and returns the modeled message cost.
func (c *Chord) refresh(x overlay.ID, i int, alive *overlay.Bitset, rng *overlay.RNG) int {
	lo := uint64(1) << uint(i-1)
	id, attempts := drawAliveCost(alive, func() overlay.ID {
		return overlay.ID((uint64(x) + lo + rng.Uint64n(lo)) & (c.space.Size() - 1))
	})
	c.table.row(int(x))[i-1] = uint32(id)
	return probeCost(attempts)
}

// Join implements Maintainer: a (re)joining node rebuilds all d fingers
// toward alive nodes, returning the modeled message cost.
func (c *Chord) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	cost := 0
	for i := 1; i <= c.space.Bits(); i++ {
		cost += c.refresh(x, i, alive, rng)
	}
	return cost
}

// Stabilize implements Maintainer: one periodic round refreshes a single
// uniformly-chosen finger (Chord's fix_fingers).
func (c *Chord) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return c.refresh(x, 1+rng.Intn(c.space.Bits()), alive, rng)
}

// Neighbors implements Protocol.
func (c *Chord) Neighbors(x overlay.ID) []overlay.ID { return c.table.neighbors(int(x)) }
