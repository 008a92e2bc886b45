package dht

import (
	"fmt"
	"sort"

	"rcm/overlay"
)

// This file implements non-fully-populated overlays — the regime the paper
// defers to future work (§6: "analytical results for real world DHTs with
// non-fully-populated identifier spaces can be similarly derived"). A
// population of n nodes is sampled uniformly without replacement from the
// 2^d identifier space; table entries point at the *occupied* node closest
// to the ideal (fully-populated) target, exactly as deployed Chord and
// Kademlia resolve their finger/bucket targets.

// sparsePopulation draws n distinct identifiers from the space, ascending.
func sparsePopulation(s overlay.Space, n int, rng *overlay.RNG) ([]overlay.ID, error) {
	if n < 2 || uint64(n) > s.Size() {
		return nil, fmt.Errorf("dht: sparse population %d out of range [2, %d]", n, s.Size())
	}
	if uint64(n) == s.Size() {
		out := make([]overlay.ID, n)
		for i := range out {
			out[i] = overlay.ID(i)
		}
		return out, nil
	}
	seen := make(map[overlay.ID]struct{}, n)
	out := make([]overlay.ID, 0, n)
	for len(out) < n {
		id := overlay.ID(rng.Uint64n(s.Size()))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// successorOf returns the first occupied identifier at or clockwise after
// target, given the ascending population.
func successorOf(nodes []overlay.ID, target overlay.ID) overlay.ID {
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i] >= target })
	if i == len(nodes) {
		return nodes[0] // wrap around the ring
	}
	return nodes[i]
}

// SparseChord is Chord over a non-fully-populated ring: n nodes at random
// identifiers, finger i of node x pointing at successor(x + 2^{i−1})
// (deployed Chord's deterministic finger definition — randomization is
// unnecessary because the population itself is random).
type SparseChord struct {
	space overlay.Space
	nodes []overlay.ID
	// table.row(k)[i-1] is finger i of nodes[k].
	table table
	index map[overlay.ID]int
}

var (
	_ Protocol  = (*SparseChord)(nil)
	_ Populated = (*SparseChord)(nil)
)

// NewSparseChord builds a Chord overlay with n nodes in a 2^cfg.Bits space.
func NewSparseChord(cfg Config, n int) (*SparseChord, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	rng := overlay.NewRNG(cfg.Seed ^ 0x73706368) // "spch"
	nodes, err := sparsePopulation(s, n, rng)
	if err != nil {
		return nil, err
	}
	t := newTable(len(nodes), s.Bits())
	index := make(map[overlay.ID]int, len(nodes))
	for k, x := range nodes {
		index[x] = k
		row := t.row(k)
		for i := range row {
			target := overlay.ID((uint64(x) + (uint64(1) << uint(i))) & (s.Size() - 1))
			row[i] = uint32(successorOf(nodes, target))
		}
	}
	return &SparseChord{space: s, nodes: nodes, table: t, index: index}, nil
}

// Name implements Protocol.
func (c *SparseChord) Name() string { return "sparse-chord" }

// Space implements Protocol.
func (c *SparseChord) Space() overlay.Space { return c.space }

// Nodes implements Populated.
func (c *SparseChord) Nodes() []overlay.ID { return c.nodes }

// Route implements Protocol: greedy clockwise over alive fingers without
// overshooting, as in the dense overlay.
func (c *SparseChord) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := c.space.MaxHops(); hops <= maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		k, ok := c.index[cur]
		if !ok {
			return hops, false
		}
		if cur, ok = greedyRingHop(c.space, c.table.row(k), cur, dst, alive); !ok {
			return hops, false
		}
	}
	return hops, false
}

// Neighbors implements Protocol.
func (c *SparseChord) Neighbors(x overlay.ID) []overlay.ID {
	k, ok := c.index[x]
	if !ok {
		return nil
	}
	return c.table.neighbors(k)
}

// SparseKademlia is Kademlia over a non-fully-populated space: bucket i of
// node x holds the occupied node XOR-closest to a random ideal contact in
// the bucket's range (bucket size 1, matching the basic geometry of §3.3).
type SparseKademlia struct {
	space overlay.Space
	nodes []overlay.ID
	// table.row(k)[i-1] is the bucket-i contact of nodes[k].
	table table
	index map[overlay.ID]int
}

var (
	_ Protocol  = (*SparseKademlia)(nil)
	_ Populated = (*SparseKademlia)(nil)
)

// NewSparseKademlia builds a Kademlia overlay with n nodes in a 2^cfg.Bits
// space.
func NewSparseKademlia(cfg Config, n int) (*SparseKademlia, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	rng := overlay.NewRNG(cfg.Seed ^ 0x73706b61) // "spka"
	nodes, err := sparsePopulation(s, n, rng)
	if err != nil {
		return nil, err
	}
	t := newTable(len(nodes), s.Bits())
	index := make(map[overlay.ID]int, len(nodes))
	for k, x := range nodes {
		index[x] = k
		row := t.row(k)
		for i := range row {
			ideal := s.RandomTail(s.FlipBit(x, i+1), i+1, rng)
			row[i] = uint32(xorClosest(s, nodes, ideal))
		}
	}
	return &SparseKademlia{space: s, nodes: nodes, table: t, index: index}, nil
}

// xorClosest returns the occupied node minimizing XOR distance to target
// (unique: XOR with a fixed target is a bijection). The ascending order of
// nodes is the in-order walk of their binary trie, so the search descends
// it a bit at a time: nodes[lo:hi] agree on every bit above the current
// one, those with it clear precede those with it set, and the half that
// matches target's bit — when it is occupied — holds the minimum.
func xorClosest(s overlay.Space, nodes []overlay.ID, target overlay.ID) overlay.ID {
	lo, hi := 0, len(nodes)
	for bit := s.Bits() - 1; bit >= 0 && hi-lo > 1; bit-- {
		mask := overlay.ID(1) << uint(bit)
		set := lo + sort.Search(hi-lo, func(i int) bool { return nodes[lo+i]&mask != 0 })
		switch {
		case set == lo || set == hi: // every node here has the same bit: nothing to choose
		case target&mask != 0:
			lo = set
		default:
			hi = set
		}
	}
	return nodes[lo]
}

// Name implements Protocol.
func (k *SparseKademlia) Name() string { return "sparse-kademlia" }

// Space implements Protocol.
func (k *SparseKademlia) Space() overlay.Space { return k.space }

// Nodes implements Populated.
func (k *SparseKademlia) Nodes() []overlay.ID { return k.nodes }

// Route implements Protocol: greedy XOR descent over alive contacts.
func (k *SparseKademlia) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for maxHops := k.space.MaxHops(); hops <= maxHops; {
		if cur == dst {
			return hops, true
		}
		ki, ok := k.index[cur]
		if !ok {
			return hops, false
		}
		curDist := k.space.XORDist(cur, dst)
		best := cur
		bestDist := curDist
		for _, e := range k.table.row(ki) {
			nb := overlay.ID(e)
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

// Neighbors implements Protocol.
func (k *SparseKademlia) Neighbors(x overlay.ID) []overlay.ID {
	ki, ok := k.index[x]
	if !ok {
		return nil
	}
	return k.table.neighbors(ki)
}
