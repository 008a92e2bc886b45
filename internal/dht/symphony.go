package dht

import (
	"rcm/overlay"
)

// Symphony is the small-world ring geometry (§3.5): each node keeps kn
// nearest clockwise neighbors plus ks long-range shortcuts whose clockwise
// distance follows the harmonic (∝ 1/distance) distribution. Routing is
// greedy clockwise without overshooting. With constant degree, an average
// of O(log N) hops passes each distance-halving phase, giving the protocol
// its O(log² N) expected path length.
type Symphony struct {
	space overlay.Space
	kn    int
	ks    int
	// table.row(x) holds kn near links then ks shortcuts.
	table table
}

var (
	_ Protocol   = (*Symphony)(nil)
	_ Forwarder  = (*Symphony)(nil)
	_ Maintainer = (*Symphony)(nil)
)

// NewSymphony builds the overlay. kn and ks default to 1 (the paper's
// Fig. 7 configuration) when left zero in cfg.
func NewSymphony(cfg Config) (*Symphony, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	kn, ks := cfg.SymphonyNear, cfg.SymphonyShortcuts
	if kn <= 0 {
		kn = 1
	}
	if ks <= 0 {
		ks = 1
	}
	n := s.Size()
	deg := kn + ks
	rng := overlay.NewRNG(cfg.Seed ^ 0x73796d70686f6e79) // "symphony"
	t := newTable(int(n), deg)
	for x := uint64(0); x < n; x++ {
		row := t.row(int(x))
		for j := 1; j <= kn; j++ {
			row[j-1] = uint32((x + uint64(j)) & (n - 1))
		}
		for j := kn; j < deg; j++ {
			row[j] = uint32((x + rng.Harmonic(n-1)) & (n - 1))
		}
	}
	return &Symphony{space: s, kn: kn, ks: ks, table: t}, nil
}

// Name implements Protocol.
func (sy *Symphony) Name() string { return "symphony" }

// Space implements Protocol.
func (sy *Symphony) Space() overlay.Space { return sy.space }

// NearNeighbors returns kn.
func (sy *Symphony) NearNeighbors() int { return sy.kn }

// Shortcuts returns ks.
func (sy *Symphony) Shortcuts() int { return sy.ks }

// Route implements Protocol: greedy clockwise over alive links without
// overshooting; fail when no alive link makes progress.
func (sy *Symphony) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := hopCap(sy.space); hops < maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		next, ok := greedyRingHop(sy.space, sy.table.row(int(cur)), cur, dst, alive)
		if !ok {
			return hops, false
		}
		cur = next
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the non-overshooting links of
// x, deduplicated, ordered by resulting clockwise distance to dst (ties
// keep link order) — the first alive candidate is Route's greedy choice.
func (sy *Symphony) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	remaining := sy.space.RingDist(x, dst)
	if remaining == 0 {
		return buf
	}
	start := len(buf)
outer:
	for _, e := range sy.table.row(int(x)) {
		l := overlay.ID(e)
		if l == x || sy.space.RingDist(x, l) > remaining {
			continue
		}
		for _, prev := range buf[start:] {
			if prev == l {
				continue outer
			}
		}
		nr := sy.space.RingDist(l, dst)
		buf = append(buf, l)
		j := len(buf) - 1
		for j > start && sy.space.RingDist(buf[j-1], dst) > nr {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = l
	}
	return buf
}

// redraw re-draws shortcut j of x from the harmonic distribution,
// preferring alive nodes, and returns the modeled message cost.
func (sy *Symphony) redraw(x overlay.ID, j int, alive *overlay.Bitset, rng *overlay.RNG) int {
	n := sy.space.Size()
	id, attempts := drawAliveCost(alive, func() overlay.ID {
		return overlay.ID((uint64(x) + rng.Harmonic(n-1)) & (n - 1))
	})
	sy.table.row(int(x))[sy.kn+j] = uint32(id)
	return probeCost(attempts)
}

// Join implements Maintainer: a (re)joining node re-draws its ks shortcuts
// toward alive nodes (near links are structural), returning the modeled
// message cost.
func (sy *Symphony) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	cost := 0
	for j := 0; j < sy.ks; j++ {
		cost += sy.redraw(x, j, alive, rng)
	}
	return cost
}

// Stabilize implements Maintainer: one periodic round re-draws a single
// uniformly-chosen shortcut from the harmonic distribution.
func (sy *Symphony) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return sy.redraw(x, rng.Intn(sy.ks), alive, rng)
}

// Neighbors implements Protocol.
func (sy *Symphony) Neighbors(x overlay.ID) []overlay.ID { return sy.table.neighbors(int(x)) }
