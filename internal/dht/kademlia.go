package dht

import (
	"rcm/overlay"
)

// Kademlia is the XOR routing geometry (§3.3): node x keeps one contact per
// bucket, the i-th chosen uniformly at random from XOR distance
// [2^{d−i}, 2^{d−i+1}) — equivalently matching x's first i−1 bits, flipping
// bit i, with a random tail. Routing is greedy in XOR distance: any alive
// contact strictly closer to the target may be used, so a dead
// highest-order contact can be bypassed by correcting a lower-order bit
// (Fig. 5(a)), at the cost of progress that is not preserved across phases.
type Kademlia struct {
	space overlay.Space
	// table[x*d + (i-1)] is node x's bucket-i contact.
	table []overlay.ID
}

var (
	_ Protocol   = (*Kademlia)(nil)
	_ Forwarder  = (*Kademlia)(nil)
	_ Maintainer = (*Kademlia)(nil)
)

// NewKademlia builds the overlay with one random contact per bucket.
func NewKademlia(cfg Config) (*Kademlia, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	d := s.Bits()
	n := s.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x6b61646d6c6961) // "kadmlia"
	table := make([]overlay.ID, int(n)*d)
	for x := uint64(0); x < n; x++ {
		id := overlay.ID(x)
		for i := 1; i <= d; i++ {
			table[int(x)*d+i-1] = s.RandomTail(s.FlipBit(id, i), i, rng)
		}
	}
	return &Kademlia{space: s, table: table}, nil
}

// Name implements Protocol.
func (k *Kademlia) Name() string { return "kademlia" }

// GeometryName implements Protocol.
func (k *Kademlia) GeometryName() string { return "xor" }

// Space implements Protocol.
func (k *Kademlia) Space() overlay.Space { return k.space }

// Degree implements Protocol.
func (k *Kademlia) Degree() int { return k.space.Bits() }

// Route implements Protocol: greedy descent in XOR distance over alive
// contacts; fail when no alive contact is strictly closer to dst.
func (k *Kademlia) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	d := k.space.Bits()
	cur := src
	hops := 0
	for maxHops := hopCap(k.space); hops < maxHops; {
		if cur == dst {
			return hops, true
		}
		curDist := k.space.XORDist(cur, dst)
		bestDist := curDist
		best := cur
		base := int(cur) * d
		for i := 0; i < d; i++ {
			nb := k.table[base+i]
			if !alive.Get(int(nb)) {
				continue
			}
			if nd := k.space.XORDist(nb, dst); nd < bestDist {
				bestDist = nd
				best = nb
			}
		}
		if best == cur {
			return hops, false
		}
		cur = best
		hops++
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the contacts strictly closer to
// dst in XOR distance, deduplicated, ordered by resulting distance (ties
// keep bucket order) — the first alive candidate is Route's greedy choice.
func (k *Kademlia) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	curDist := k.space.XORDist(x, dst)
	if curDist == 0 {
		return buf
	}
	d := k.space.Bits()
	start := len(buf)
	base := int(x) * d
outer:
	for i := 0; i < d; i++ {
		nb := k.table[base+i]
		nd := k.space.XORDist(nb, dst)
		if nd >= curDist {
			continue // no strict progress
		}
		for _, prev := range buf[start:] {
			if prev == nb {
				continue outer
			}
		}
		buf = append(buf, nb)
		j := len(buf) - 1
		for j > start && k.space.XORDist(buf[j-1], dst) > nd {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = nb
	}
	return buf
}

// Join implements Maintainer: a (re)joining node refreshes every bucket
// contact toward alive nodes, returning the modeled message cost.
func (k *Kademlia) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return prefixJoin(k.space, k.table, x, alive, rng)
}

// Stabilize implements Maintainer: one periodic round refreshes a single
// uniformly-chosen bucket (Kademlia's bucket refresh).
func (k *Kademlia) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return prefixRefresh(k.space, k.table, x, 1+rng.Intn(k.space.Bits()), alive, rng)
}

// Neighbors implements Protocol.
func (k *Kademlia) Neighbors(x overlay.ID) []overlay.ID {
	d := k.space.Bits()
	out := make([]overlay.ID, d)
	copy(out, k.table[int(x)*d:int(x)*d+d])
	return out
}

// AppendReplicaSet implements the rcm/replica.Replicator capability
// (structurally — no import needed): copies of a key live on the XOR-
// adjacent identifiers root^0, root^1, root^2, …, Kademlia's natural
// replica neighborhood (the k closest ids under the XOR metric). The
// root is first, the set is distinct by construction, and the placement
// is a pure function of (root, k) per the capability contract.
func (k *Kademlia) AppendReplicaSet(buf []overlay.ID, root overlay.ID, n int) []overlay.ID {
	if n < 1 {
		n = 1
	}
	if sz := k.space.Size(); uint64(n) > sz {
		n = int(sz)
	}
	for i := 0; i < n; i++ {
		buf = append(buf, root^overlay.ID(i))
	}
	return buf
}
