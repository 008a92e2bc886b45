package dht

import (
	"sort"
	"testing"

	"rcm/overlay"
)

func TestSparsePopulationProperties(t *testing.T) {
	s := overlay.MustSpace(12)
	rng := overlay.NewRNG(3)
	nodes, err := sparsePopulation(s, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 500 {
		t.Fatalf("population size %d", len(nodes))
	}
	if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
		t.Error("population not sorted")
	}
	seen := make(map[overlay.ID]bool, len(nodes))
	for _, id := range nodes {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		if !s.Contains(id) {
			t.Fatalf("id %d outside space", id)
		}
		seen[id] = true
	}
}

func TestSparsePopulationFull(t *testing.T) {
	s := overlay.MustSpace(6)
	nodes, err := sparsePopulation(s, 64, overlay.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range nodes {
		if int(id) != i {
			t.Fatalf("full population not identity at %d: %d", i, id)
		}
	}
}

func TestSparsePopulationValidation(t *testing.T) {
	s := overlay.MustSpace(4)
	if _, err := sparsePopulation(s, 1, overlay.NewRNG(1)); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := sparsePopulation(s, 17, overlay.NewRNG(1)); err == nil {
		t.Error("n > space accepted")
	}
}

func TestSuccessorOf(t *testing.T) {
	nodes := []overlay.ID{3, 10, 200}
	tests := []struct {
		target overlay.ID
		want   overlay.ID
	}{
		{0, 3},
		{3, 3},
		{4, 10},
		{10, 10},
		{11, 200},
		{201, 3}, // wraps
	}
	for _, tt := range tests {
		if got := successorOf(nodes, tt.target); got != tt.want {
			t.Errorf("successorOf(%d) = %d, want %d", tt.target, got, tt.want)
		}
	}
}

// xorClosestScan is the definition xorClosest must agree with: the
// occupied node at least XOR distance, by linear scan.
func xorClosestScan(s overlay.Space, nodes []overlay.ID, target overlay.ID) overlay.ID {
	best := nodes[0]
	bestDist := s.XORDist(best, target)
	for _, nd := range nodes[1:] {
		if d := s.XORDist(nd, target); d < bestDist {
			bestDist = d
			best = nd
		}
	}
	return best
}

// TestXORClosestMatchesScan: the trie descent returns the scan's node for
// random populations from two nodes to the full space — targets occupied
// and not, every width including the one-bit space.
func TestXORClosestMatchesScan(t *testing.T) {
	rng := overlay.NewRNG(41)
	for _, bits := range []int{1, 2, 3, 7, 12, 20} {
		s := overlay.MustSpace(bits)
		for trial := 0; trial < 40; trial++ {
			n := 2
			if max := int(min(s.Size(), 3000)); max > 2 {
				n += rng.Intn(max - 1)
			}
			nodes, err := sparsePopulation(s, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			for probe := 0; probe < 200; probe++ {
				target := overlay.ID(rng.Uint64n(s.Size()))
				if probe%4 == 0 {
					target = nodes[rng.Intn(len(nodes))]
				}
				if got, want := xorClosest(s, nodes, target), xorClosestScan(s, nodes, target); got != want {
					t.Fatalf("bits %d, %d nodes, target %d: xorClosest = %d, scan = %d", bits, n, target, got, want)
				}
			}
		}
	}
}

func TestSparseChordStructure(t *testing.T) {
	sc, err := NewSparseChord(Config{Bits: 12, Seed: 3}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sc.Nodes()); got != 300 {
		t.Fatalf("Nodes() = %d", got)
	}
	s := sc.Space()
	occupied := make(map[overlay.ID]bool, 300)
	for _, id := range sc.Nodes() {
		occupied[id] = true
	}
	for _, x := range sc.Nodes()[:20] {
		for i, f := range sc.Neighbors(x) {
			if !occupied[f] {
				t.Fatalf("node %d finger %d points at unoccupied %d", x, i+1, f)
			}
			_ = s
		}
	}
}

func TestSparseChordAllPairsRoutableNoFailure(t *testing.T) {
	sc, err := NewSparseChord(Config{Bits: 12, Seed: 3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	alive := overlay.NewBitset(int(sc.Space().Size()))
	for _, id := range sc.Nodes() {
		alive.Set(int(id))
	}
	nodes := sc.Nodes()
	for _, src := range nodes[:40] {
		for _, dst := range nodes[:40] {
			if src == dst {
				continue
			}
			if _, ok := sc.Route(src, dst, alive); !ok {
				t.Fatalf("sparse chord route %d->%d failed with all alive", src, dst)
			}
		}
	}
}

func TestSparseKademliaAllPairsRoutableNoFailure(t *testing.T) {
	sk, err := NewSparseKademlia(Config{Bits: 12, Seed: 3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	alive := overlay.NewBitset(int(sk.Space().Size()))
	for _, id := range sk.Nodes() {
		alive.Set(int(id))
	}
	nodes := sk.Nodes()
	for _, src := range nodes[:40] {
		for _, dst := range nodes[:40] {
			if src == dst {
				continue
			}
			if _, ok := sk.Route(src, dst, alive); !ok {
				t.Fatalf("sparse kademlia route %d->%d failed with all alive", src, dst)
			}
		}
	}
}

func TestSparseRouteFromUnknownNode(t *testing.T) {
	sc, err := NewSparseChord(Config{Bits: 10, Seed: 3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	alive := overlay.NewBitset(int(sc.Space().Size()))
	alive.SetAll()
	// Find an identifier that is NOT in the population.
	occupied := make(map[overlay.ID]bool)
	for _, id := range sc.Nodes() {
		occupied[id] = true
	}
	var ghost overlay.ID
	for v := overlay.ID(0); ; v++ {
		if !occupied[v] {
			ghost = v
			break
		}
	}
	if _, ok := sc.Route(ghost, sc.Nodes()[0], alive); ok {
		t.Error("route from unoccupied identifier succeeded")
	}
	if nbs := sc.Neighbors(ghost); nbs != nil {
		t.Error("Neighbors of unoccupied identifier non-nil")
	}
}

func TestSparseKademliaNeighborsUnknownNode(t *testing.T) {
	sk, err := NewSparseKademlia(Config{Bits: 10, Seed: 3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	occupied := make(map[overlay.ID]bool)
	for _, id := range sk.Nodes() {
		occupied[id] = true
	}
	var ghost overlay.ID
	for v := overlay.ID(0); ; v++ {
		if !occupied[v] {
			ghost = v
			break
		}
	}
	if nbs := sk.Neighbors(ghost); nbs != nil {
		t.Error("Neighbors of unoccupied identifier non-nil")
	}
	alive := overlay.NewBitset(int(sk.Space().Size()))
	alive.SetAll()
	if _, ok := sk.Route(ghost, sk.Nodes()[0], alive); ok {
		t.Error("route from unoccupied identifier succeeded")
	}
}

func TestChordWithSuccessorsStructure(t *testing.T) {
	c, err := NewChordWithSuccessors(Config{Bits: 10, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.successors != 4 {
		t.Fatalf("successors = %d", c.successors)
	}
	s := c.Space()
	nbs := c.Neighbors(7)
	if len(nbs) != 14 {
		t.Fatalf("%d links, want 4+10", len(nbs))
	}
	for j := 0; j < 4; j++ {
		if got := s.RingDist(7, nbs[j]); got != uint64(j+1) {
			t.Errorf("successor %d at distance %d", j, got)
		}
	}
	for i := 0; i < 10; i++ {
		dist := s.RingDist(7, nbs[4+i])
		lo := uint64(1) << uint(i)
		if dist < lo || dist >= lo<<1 {
			t.Errorf("finger %d at distance %d, want [%d,%d)", i+1, dist, lo, lo<<1)
		}
	}
}

func TestChordWithSuccessorsValidation(t *testing.T) {
	if _, err := NewChordWithSuccessors(Config{Bits: 4, Seed: 1}, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := NewChordWithSuccessors(Config{Bits: 4, Seed: 1}, 16); err == nil {
		t.Error("s >= N accepted")
	}
}

func TestChordWithSuccessorsAllPairsRoutable(t *testing.T) {
	c, err := NewChordWithSuccessors(Config{Bits: 8, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	alive := overlay.NewBitset(int(c.Space().Size()))
	alive.SetAll()
	for src := overlay.ID(0); src < 64; src++ {
		for dst := overlay.ID(0); dst < 64; dst++ {
			if src == dst {
				continue
			}
			if _, ok := c.Route(src, dst, alive); !ok {
				t.Fatalf("route %d->%d failed with all alive", src, dst)
			}
		}
	}
}

func TestSuccessorListImprovesResilience(t *testing.T) {
	// The §1 knob: more sequential neighbors, better routability under the
	// same failure pattern.
	const bits = 11
	const q = 0.5
	rng := overlay.NewRNG(17)
	alive := overlay.NewBitset(1 << bits)
	alive.FillRandomAlive(q, rng)

	success := func(p Protocol) int {
		s := p.Space()
		local := overlay.NewRNG(23)
		ok := 0
		for trial := 0; trial < 4000; trial++ {
			src := overlay.ID(local.Uint64n(s.Size()))
			dst := overlay.ID(local.Uint64n(s.Size()))
			if src == dst || !alive.Get(int(src)) || !alive.Get(int(dst)) {
				continue
			}
			if _, routed := p.Route(src, dst, alive); routed {
				ok++
			}
		}
		return ok
	}

	s1, err := NewChordWithSuccessors(Config{Bits: bits, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := NewChordWithSuccessors(Config{Bits: bits, Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ok1, ok8 := success(s1), success(s8)
	if ok8 <= ok1 {
		t.Errorf("8 successors (%d routes) did not beat 1 successor (%d routes)", ok8, ok1)
	}
}
