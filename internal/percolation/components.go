package percolation

import (
	"sort"

	"rcm/overlay"
)

// Overlay is the structural view of a DHT this package needs; it is
// satisfied by every dht.Protocol.
type Overlay interface {
	Space() overlay.Space
	Neighbors(x overlay.ID) []overlay.ID
}

// RoutedOverlay additionally exposes the routing primitive, enabling the
// reachable-vs-connected comparison. Satisfied by every dht.Protocol.
type RoutedOverlay interface {
	Overlay
	Route(src, dst overlay.ID, alive *overlay.Bitset) (hops int, ok bool)
}

// Stats summarizes the connected-component structure of an overlay after
// node failures. Edges are taken as undirected: routing-table entries give
// the adjacency, and a link is usable for connectivity when both endpoints
// survive.
type Stats struct {
	// Alive is the number of surviving nodes.
	Alive int
	// Components is the number of connected components among survivors.
	Components int
	// GiantSize is the size of the largest component (0 when none survive).
	GiantSize int
	// GiantFraction is GiantSize / Alive (0 when none survive).
	GiantFraction float64
	// ComponentSizes lists all component sizes in descending order.
	ComponentSizes []int
}

// ComponentStats computes connected components among alive members of
// nodes, linking each alive node to its alive routing-table neighbors.
func ComponentStats(o Overlay, nodes []overlay.ID, alive *overlay.Bitset) Stats {
	aliveNodes := survivors(nodes, alive)
	if len(aliveNodes) == 0 {
		return Stats{}
	}
	u := connect(o, aliveNodes)
	var sizes []int
	for i := range aliveNodes {
		if u.Find(i) == i {
			sizes = append(sizes, u.ComponentSize(i))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	st := Stats{
		Alive:          len(aliveNodes),
		Components:     len(sizes),
		GiantSize:      sizes[0],
		ComponentSizes: sizes,
	}
	st.GiantFraction = float64(st.GiantSize) / float64(st.Alive)
	return st
}

// ThresholdPoint is one sample of a percolation scan.
type ThresholdPoint struct {
	// Q is the node-failure probability.
	Q float64
	// GiantFraction is the mean fraction of survivors in the giant
	// component across trials.
	GiantFraction float64
	// Routability is the mean sampled routability at the same q (filled by
	// callers that combine both measurements; zero otherwise).
	Routability float64
}

// ScanOptions configures ThresholdScan.
type ScanOptions struct {
	// Trials is the number of independent failure patterns per q (default 3).
	Trials int
	// Seed drives the failure patterns.
	Seed uint64
}

// ThresholdScan measures the giant-component fraction across failure
// probabilities — the connectivity ceiling that routability can never
// exceed (§1: pairs in different components cannot route; pairs in the same
// component still may not).
func ThresholdScan(o Overlay, nodes []overlay.ID, qs []float64, opt ScanOptions) []ThresholdPoint {
	if opt.Trials <= 0 {
		opt.Trials = 3
	}
	rng := overlay.NewRNG(opt.Seed ^ 0x50455243) // "PERC"
	out := make([]ThresholdPoint, 0, len(qs))
	// The coins fall over population indexes into pop; the survivors,
	// mapped to identifiers, are the only bits set in alive.
	alive := overlay.NewBitset(int(o.Space().Size()))
	pop := overlay.NewBitset(len(nodes))
	var survived []overlay.ID
	for _, q := range qs {
		var sum float64
		for trial := 0; trial < opt.Trials; trial++ {
			for _, id := range survived {
				alive.Clear(int(id))
			}
			pop.FillRandomAlive(q, rng)
			survived = pop.AppendSet(survived[:0])
			for k, i := range survived {
				survived[k] = nodes[i]
				alive.Set(int(nodes[i]))
			}
			st := ComponentStats(o, nodes, alive)
			if st.Alive > 0 {
				sum += st.GiantFraction
			}
		}
		out = append(out, ThresholdPoint{Q: q, GiantFraction: sum / float64(opt.Trials)})
	}
	return out
}

// ReachableVsConnected samples root nodes and compares, under one failure
// pattern, the size of each root's reachable component (targets the routing
// protocol actually delivers to) against its connected component. The
// paper's §4.1 observation — reachable ⊆ connected — manifests as
// meanReachable ≤ meanConnected.
func ReachableVsConnected(o RoutedOverlay, nodes []overlay.ID, alive *overlay.Bitset, roots int, rng *overlay.RNG) (meanReachable, meanConnected float64) {
	aliveNodes := survivors(nodes, alive)
	if len(aliveNodes) < 2 || roots <= 0 {
		return 0, 0
	}
	u := connect(o, aliveNodes) // once per failure pattern
	var reachSum, connSum float64
	for r := 0; r < roots; r++ {
		ri := rng.Intn(len(aliveNodes))
		root := aliveNodes[ri]
		reach := 0
		for _, dst := range aliveNodes {
			if dst == root {
				continue
			}
			if _, ok := o.Route(root, dst, alive); ok {
				reach++
			}
		}
		reachSum += float64(reach)
		connSum += float64(u.ComponentSize(ri) - 1) // exclude the root itself
	}
	return reachSum / float64(roots), connSum / float64(roots)
}

// survivors returns the members of nodes alive in alive, in order.
func survivors(nodes []overlay.ID, alive *overlay.Bitset) []overlay.ID {
	out := make([]overlay.ID, 0, len(nodes))
	for _, id := range nodes {
		if alive.Get(int(id)) {
			out = append(out, id)
		}
	}
	return out
}

// connect links each of aliveNodes to those of its routing-table
// neighbors that are aliveNodes too, and returns the union-find over
// their positions. A survivor's position is read from a dense index over
// the identifier space, -1 where no survivor is. It stops once every
// survivor is in one component, which no further edge can change: a
// single-hop overlay's complete view merges them all at the first
// survivor, where a full pass would union N² edges.
func connect(o Overlay, aliveNodes []overlay.ID) *UnionFind {
	idx := make([]int32, o.Space().Size())
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range aliveNodes {
		idx[id] = int32(i)
	}
	u := NewUnionFind(len(aliveNodes))
	merges := 0
	for i, id := range aliveNodes {
		if merges == len(aliveNodes)-1 {
			break
		}
		for _, nb := range o.Neighbors(id) {
			if j := idx[nb]; j >= 0 && nb != id && u.Union(i, int(j)) {
				merges++
			}
		}
	}
	return u
}
