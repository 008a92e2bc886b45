package percolation

import (
	"testing"

	"rcm/internal/dht"
	"rcm/overlay"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if components(u) != 5 {
		t.Fatalf("initial count = %d", components(u))
	}
	if !u.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if u.Union(1, 0) {
		t.Error("repeat union reported merge")
	}
	if !u.Connected(0, 1) {
		t.Error("0 and 1 not connected after union")
	}
	if u.Connected(0, 2) {
		t.Error("0 and 2 connected without union")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if components(u) != 2 { // {0,1,2,3} and {4}
		t.Errorf("count = %d, want 2", components(u))
	}
	if got := u.ComponentSize(1); got != 4 {
		t.Errorf("component size = %d, want 4", got)
	}
	if got := u.ComponentSize(4); got != 1 {
		t.Errorf("singleton size = %d, want 1", got)
	}
}

func TestUnionFindChainCollapse(t *testing.T) {
	const n = 1000
	u := NewUnionFind(n)
	for i := 1; i < n; i++ {
		u.Union(i-1, i)
	}
	if components(u) != 1 {
		t.Fatalf("chain count = %d, want 1", components(u))
	}
	if u.ComponentSize(0) != n {
		t.Fatalf("chain size = %d, want %d", u.ComponentSize(0), n)
	}
	for i := 0; i < n; i += 97 {
		if !u.Connected(0, i) {
			t.Fatalf("0 and %d disconnected", i)
		}
	}
}

func buildOverlay(t *testing.T, name string, bits int) dht.Protocol {
	t.Helper()
	p, err := dht.New(name, dht.Config{Bits: bits, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func allNodes(p dht.Protocol) []overlay.ID {
	n := p.Space().Size()
	out := make([]overlay.ID, n)
	for i := uint64(0); i < n; i++ {
		out[i] = overlay.ID(i)
	}
	return out
}

func TestComponentStatsFullyAlive(t *testing.T) {
	for _, name := range dht.ProtocolNames() {
		p := buildOverlay(t, name, 8)
		nodes := allNodes(p)
		alive := overlay.NewBitset(int(p.Space().Size()))
		alive.SetAll()
		st := ComponentStats(p, nodes, alive)
		if st.Alive != 256 {
			t.Errorf("%s: alive = %d", name, st.Alive)
		}
		if st.Components != 1 || st.GiantSize != 256 || st.GiantFraction != 1 {
			t.Errorf("%s: healthy overlay fragmented: %+v", name, st)
		}
	}
}

func TestComponentStatsEmpty(t *testing.T) {
	p := buildOverlay(t, "can", 6)
	alive := overlay.NewBitset(int(p.Space().Size()))
	st := ComponentStats(p, allNodes(p), alive)
	if st.Alive != 0 || st.Components != 0 || st.GiantSize != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestComponentStatsFragmentation(t *testing.T) {
	// Keep two distant ring arcs alive in a Symphony overlay with kn=1,
	// ks=1: near links connect within arcs; shortcuts rarely bridge two
	// short arcs, so at least 2 components are expected.
	p := buildOverlay(t, "symphony", 10)
	alive := overlay.NewBitset(int(p.Space().Size()))
	for v := 0; v < 8; v++ {
		alive.Set(v)
	}
	for v := 512; v < 520; v++ {
		alive.Set(v)
	}
	st := ComponentStats(p, allNodes(p), alive)
	if st.Alive != 16 {
		t.Fatalf("alive = %d", st.Alive)
	}
	if st.Components < 2 {
		t.Errorf("expected fragmentation, got %+v", st)
	}
	// Sizes must sum to alive and be sorted descending.
	sum := 0
	for i, s := range st.ComponentSizes {
		sum += s
		if i > 0 && s > st.ComponentSizes[i-1] {
			t.Errorf("sizes not descending: %v", st.ComponentSizes)
		}
	}
	if sum != st.Alive {
		t.Errorf("component sizes sum to %d, alive %d", sum, st.Alive)
	}
}

func TestGiantFractionDecreasesWithQ(t *testing.T) {
	p := buildOverlay(t, "chord", 10)
	nodes := allNodes(p)
	pts := ThresholdScan(p, nodes, []float64{0, 0.3, 0.6, 0.9}, ScanOptions{Trials: 3, Seed: 7})
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].GiantFraction != 1 {
		t.Errorf("q=0 giant fraction = %v, want 1", pts[0].GiantFraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].GiantFraction > pts[i-1].GiantFraction+0.05 {
			t.Errorf("giant fraction rose: %v then %v", pts[i-1].GiantFraction, pts[i].GiantFraction)
		}
	}
}

// TestThresholdScanMatchesBernoulliLoop holds the scan, which draws its
// failure pattern over population indexes and maps it to identifiers, to
// one Bernoulli(1-q) coin per member in list order. The members are a
// shuffled third of the space, so index and identifier differ and every
// trial must clear the previous trial's survivors.
func TestThresholdScanMatchesBernoulliLoop(t *testing.T) {
	p := buildOverlay(t, "chord", 10)
	shuffle := overlay.NewRNG(3)
	var nodes []overlay.ID
	for _, id := range allNodes(p) {
		if id%3 == 0 {
			nodes = append(nodes, id)
		}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := shuffle.Intn(i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	qs := []float64{0, 0.2, 0.5, 0.8, 1}
	opt := ScanOptions{Trials: 4, Seed: 9}
	got := ThresholdScan(p, nodes, qs, opt)

	rng := overlay.NewRNG(opt.Seed ^ 0x50455243)
	alive := overlay.NewBitset(int(p.Space().Size()))
	for i, q := range qs {
		var sum float64
		for trial := 0; trial < opt.Trials; trial++ {
			for _, id := range nodes {
				if rng.Bernoulli(1 - q) {
					alive.Set(int(id))
				} else {
					alive.Clear(int(id))
				}
			}
			if st := ComponentStats(p, nodes, alive); st.Alive > 0 {
				sum += st.GiantFraction
			}
		}
		if want := sum / float64(opt.Trials); got[i].GiantFraction != want {
			t.Errorf("q=%v: giant fraction %v, per-member Bernoulli loop %v", q, got[i].GiantFraction, want)
		}
	}
}

func TestConnectivityExceedsRoutability(t *testing.T) {
	// §1: routability is bounded above by connectivity — pairs in the same
	// component need not be routable, pairs in different components never
	// are. Check reachable <= connected on every protocol at q=0.4.
	for _, name := range dht.ProtocolNames() {
		p := buildOverlay(t, name, 9)
		nodes := allNodes(p)
		alive := overlay.NewBitset(int(p.Space().Size()))
		rng := overlay.NewRNG(11)
		alive.FillRandomAlive(0.4, rng)
		reach, conn := ReachableVsConnected(p, nodes, alive, 20, rng)
		if reach > conn+1e-9 {
			t.Errorf("%s: mean reachable %v exceeds mean connected %v", name, reach, conn)
		}
		if conn <= 0 {
			t.Errorf("%s: degenerate connectivity measurement", name)
		}
	}
}

func TestTreeReachabilityGapIsLarge(t *testing.T) {
	// The tree geometry's reachable component collapses under failure far
	// faster than its connected component — the gap that motivates RCM over
	// plain percolation analysis.
	p := buildOverlay(t, "plaxton", 10)
	nodes := allNodes(p)
	alive := overlay.NewBitset(int(p.Space().Size()))
	rng := overlay.NewRNG(13)
	alive.FillRandomAlive(0.3, rng)
	reach, conn := ReachableVsConnected(p, nodes, alive, 30, rng)
	if reach > 0.6*conn {
		t.Errorf("tree gap too small: reachable %v vs connected %v", reach, conn)
	}
}

func TestHypercubeReachabilityGapIsSmall(t *testing.T) {
	// The hypercube's many per-phase options keep reachability close to
	// connectivity at moderate q.
	p := buildOverlay(t, "can", 10)
	nodes := allNodes(p)
	alive := overlay.NewBitset(int(p.Space().Size()))
	rng := overlay.NewRNG(17)
	alive.FillRandomAlive(0.2, rng)
	reach, conn := ReachableVsConnected(p, nodes, alive, 30, rng)
	if reach < 0.9*conn {
		t.Errorf("hypercube gap too large: reachable %v vs connected %v", reach, conn)
	}
}

func TestReachableVsConnectedDegenerate(t *testing.T) {
	p := buildOverlay(t, "can", 6)
	alive := overlay.NewBitset(int(p.Space().Size()))
	rng := overlay.NewRNG(1)
	if r, c := ReachableVsConnected(p, allNodes(p), alive, 5, rng); r != 0 || c != 0 {
		t.Errorf("no survivors: %v %v", r, c)
	}
	alive.Set(0)
	alive.Set(1)
	if r, c := ReachableVsConnected(p, allNodes(p), alive, 0, rng); r != 0 || c != 0 {
		t.Errorf("zero roots: %v %v", r, c)
	}
}
