package percolation

import "testing"

// components counts u's components, singletons included: the elements
// that are their own representative.
func components(u *UnionFind) int {
	n := 0
	for x := range u.parent {
		if u.Find(x) == x {
			n++
		}
	}
	return n
}

// TestUnionFindEmpty: the degenerate zero-element structure is usable —
// no components, no panics on construction.
func TestUnionFindEmpty(t *testing.T) {
	u := NewUnionFind(0)
	if got := components(u); got != 0 {
		t.Errorf("components = %d, want 0", got)
	}
}

// TestUnionFindSingleton: one element is its own component of size 1.
func TestUnionFindSingleton(t *testing.T) {
	u := NewUnionFind(1)
	if got := u.Find(0); got != 0 {
		t.Errorf("Find(0) = %d, want 0", got)
	}
	if got := u.ComponentSize(0); got != 1 {
		t.Errorf("ComponentSize(0) = %d, want 1", got)
	}
	if !u.Connected(0, 0) {
		t.Error("Connected(0, 0) = false")
	}
}

// TestUnionFindSelfUnion: Union(a, a) must report no merge and leave the
// component count untouched.
func TestUnionFindSelfUnion(t *testing.T) {
	u := NewUnionFind(4)
	if u.Union(2, 2) {
		t.Error("Union(2, 2) reported a merge")
	}
	if got := components(u); got != 4 {
		t.Errorf("components after self-union = %d, want 4", got)
	}
	if got := u.ComponentSize(2); got != 1 {
		t.Errorf("ComponentSize(2) after self-union = %d, want 1", got)
	}
}

// TestUnionFindDuplicateUnion: re-uniting an existing component is a
// reported no-op.
func TestUnionFindDuplicateUnion(t *testing.T) {
	u := NewUnionFind(4)
	if !u.Union(0, 1) {
		t.Fatal("first Union(0, 1) reported no merge")
	}
	if u.Union(1, 0) {
		t.Error("Union(1, 0) merged an already-joined pair")
	}
	if u.Union(0, 1) {
		t.Error("repeated Union(0, 1) merged again")
	}
	if got := components(u); got != 3 {
		t.Errorf("components = %d, want 3", got)
	}
}

// TestUnionFindFindIdempotent: Find must return the same representative
// when called repeatedly — path halving rewrites parent pointers, but the
// root it reports may never change between mutations.
func TestUnionFindFindIdempotent(t *testing.T) {
	// Build a deliberately deep chain: weighted union keeps trees shallow,
	// so chain the unions to force at least some internal paths.
	const n = 64
	u := NewUnionFind(n)
	for i := 1; i < n; i++ {
		u.Union(0, i)
	}
	for x := 0; x < n; x++ {
		first := u.Find(x)
		for k := 0; k < 3; k++ {
			if got := u.Find(x); got != first {
				t.Fatalf("Find(%d) changed from %d to %d on call %d", x, first, got, k+2)
			}
		}
	}
	// Path halving must not disturb component accounting.
	if got := components(u); got != 1 {
		t.Errorf("components = %d, want 1", got)
	}
	for x := 0; x < n; x++ {
		if got := u.ComponentSize(x); got != n {
			t.Fatalf("ComponentSize(%d) = %d, want %d", x, got, n)
		}
	}
}

// TestUnionFindWeighting: the representative of a merge is stable under
// the size heuristic — merging a singleton into a big component keeps the
// big component's root.
func TestUnionFindWeighting(t *testing.T) {
	u := NewUnionFind(8)
	u.Union(0, 1)
	u.Union(0, 2)
	big := u.Find(0)
	u.Union(7, 0) // singleton 7 into the size-3 component
	if got := u.Find(7); got != big {
		t.Errorf("Find(7) = %d, want the big component's root %d", got, big)
	}
	if got := u.ComponentSize(7); got != 4 {
		t.Errorf("ComponentSize(7) = %d, want 4", got)
	}
}
