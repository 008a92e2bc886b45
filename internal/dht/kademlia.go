package dht

import (
	"math/bits"

	"rcm/overlay"
)

// Kademlia is the XOR routing geometry (§3.3): node x keeps one contact per
// bucket, the i-th chosen uniformly at random from XOR distance
// [2^{d−i}, 2^{d−i+1}) — equivalently matching x's first i−1 bits, flipping
// bit i, with a random tail. Routing is greedy in XOR distance: any alive
// contact strictly closer to the target may be used, so a dead
// highest-order contact can be bypassed by correcting a lower-order bit
// (Fig. 5(a)), at the cost of progress that is not preserved across phases.
//
// The constructor and both Maintainer methods keep contact i differing
// from x first at bit i (the invariant stated on table), and forwarding is
// derived from that rather than from a scan: contact i is strictly closer
// to dst exactly when bit i of x⊕dst is set (it clears that bit and leaves
// the higher ones alone), and clearing a higher bit always lands closer
// than clearing a lower one. The contacts at the set bits of x⊕dst, most
// significant first, are therefore the progress-making contacts in
// preference order — the hypercube's enumeration, read from a table.
type Kademlia struct {
	space overlay.Space
	// table.row(x)[i-1] is node x's bucket-i contact.
	table table
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
	rng := overlay.NewRNG(cfg.Seed ^ 0x6b61646d6c6961) // "kadmlia"
	return &Kademlia{space: s, table: newPrefixTable(s, rng)}, nil
}

// Name implements Protocol.
func (k *Kademlia) Name() string { return "kademlia" }

// Space implements Protocol.
func (k *Kademlia) Space() overlay.Space { return k.space }

// Route implements Protocol: greedy descent in XOR distance over alive
// contacts; fail when no alive contact is strictly closer to dst.
func (k *Kademlia) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
hop:
	for maxHops := hopCap(k.space); hops < maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		row := k.table.row(int(cur))
		for diff := k.space.XORDist(cur, dst); diff != 0; {
			top := bits.Len64(diff) // bit `top` from the right is bit d+1−top from the left
			if nb := row[len(row)-top]; alive.Get(int(nb)) {
				cur = overlay.ID(nb)
				continue hop
			}
			diff &^= 1 << uint(top-1)
		}
		return hops, false
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the contacts strictly closer to
// dst in XOR distance, ordered by resulting distance — the first alive
// candidate is Route's greedy choice. Contacts differ from x and from each
// other in their first differing bit, so the list has no duplicates and
// never contains x.
func (k *Kademlia) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	row := k.table.row(int(x))
	for diff := k.space.XORDist(x, dst); diff != 0; {
		top := bits.Len64(diff)
		buf = append(buf, overlay.ID(row[len(row)-top]))
		diff &^= 1 << uint(top-1)
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
func (k *Kademlia) Neighbors(x overlay.ID) []overlay.ID { return k.table.neighbors(int(x)) }

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
