// Package percolation provides the site-percolation machinery behind the
// paper's §1 framing: under node-failure probability q the overlay graph
// fragments (percolation theory bounds when), but connectivity alone
// overstates what greedy DHT routing can use — the reachable component of a
// node is a subset of its connected component. This package measures both
// sides of that inequality on the concrete overlays in internal/dht.
package percolation

// UnionFind is a weighted quick-union structure with path halving, used to
// extract connected components of the failed overlay graph.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind returns a structure over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		size:   make([]int32, n),
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x's component.
func (u *UnionFind) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		u.parent[p] = u.parent[u.parent[p]] // path halving
		p = u.parent[p]
	}
	return int(p)
}

// Union merges the components of a and b, reporting whether a merge
// happened (false when already connected).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	u.size[ra] += u.size[rb]
	return true
}

// Connected reports whether a and b share a component.
func (u *UnionFind) Connected(a, b int) bool {
	return u.Find(a) == u.Find(b)
}

// ComponentSize returns the size of x's component.
func (u *UnionFind) ComponentSize(x int) int {
	return int(u.size[u.Find(x)])
}
