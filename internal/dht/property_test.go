package dht

import (
	"testing"
	"testing/quick"

	"rcm/overlay"
)

// Property-based tests (testing/quick) over random failure patterns and
// random pairs: structural invariants every protocol must uphold.

// TestRouteNeverExceedsHopCap: a Route stops by MaxHops + 1 hops, the
// first count over the shared budget.
func TestRouteNeverExceedsHopCap(t *testing.T) {
	for _, name := range ProtocolNames() {
		p, err := New(name, Config{Bits: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Space()
		capHops := s.MaxHops() + 1
		f := func(seed uint64, a, b uint16) bool {
			alive := overlay.NewBitset(int(s.Size()))
			alive.FillRandomAlive(0.4, overlay.NewRNG(seed))
			src := overlay.ID(uint64(a) & (s.Size() - 1))
			dst := overlay.ID(uint64(b) & (s.Size() - 1))
			alive.Set(int(src))
			alive.Set(int(dst))
			hops, _ := p.Route(src, dst, alive)
			return hops >= 0 && hops <= capHops
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRouteSuccessIsExactlyReachingDst(t *testing.T) {
	// ok == true ⇔ zero remaining distance: a route reporting success from
	// src==dst must take 0 hops, and distinct alive pairs must take >= 1.
	for _, name := range ProtocolNames() {
		p, err := New(name, Config{Bits: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Space()
		f := func(seed uint64, a, b uint16) bool {
			alive := overlay.NewBitset(int(s.Size()))
			alive.FillRandomAlive(0.3, overlay.NewRNG(seed))
			src := overlay.ID(uint64(a) & (s.Size() - 1))
			dst := overlay.ID(uint64(b) & (s.Size() - 1))
			alive.Set(int(src))
			alive.Set(int(dst))
			hops, ok := p.Route(src, dst, alive)
			if src == dst {
				return ok && hops == 0
			}
			return !ok || hops >= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMoreFailuresNeverHelpOnAverage(t *testing.T) {
	// Coupling property: for nested failure sets (kill set A ⊂ B), routes
	// that survive B's failures form a subset in expectation. Checked
	// statistically: success count under heavier failure never exceeds the
	// lighter one by more than noise.
	for _, name := range ProtocolNames() {
		p, err := New(name, Config{Bits: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Space()
		n := int(s.Size())
		rng := overlay.NewRNG(41)
		light := overlay.NewBitset(n)
		heavy := overlay.NewBitset(n)
		light.SetAll()
		heavy.SetAll()
		// Nested kills: heavy kills everything light kills plus more.
		for i := 0; i < n; i++ {
			u := rng.Float64()
			if u < 0.2 {
				light.Clear(i)
				heavy.Clear(i)
			} else if u < 0.45 {
				heavy.Clear(i)
			}
		}
		okLight, okHeavy := 0, 0
		pairRNG := overlay.NewRNG(43)
		for trial := 0; trial < 3000; trial++ {
			src := overlay.ID(pairRNG.Uint64n(s.Size()))
			dst := overlay.ID(pairRNG.Uint64n(s.Size()))
			if src == dst || !heavy.Get(int(src)) || !heavy.Get(int(dst)) {
				continue
			}
			if _, ok := p.Route(src, dst, light); ok {
				okLight++
			}
			if _, ok := p.Route(src, dst, heavy); ok {
				okHeavy++
			}
		}
		if okHeavy > okLight {
			t.Errorf("%s: heavier failures helped: %d > %d", name, okHeavy, okLight)
		}
	}
}

func TestGreedyRoutesAreLoopFree(t *testing.T) {
	// Strict-progress protocols can never revisit a node. Track visited
	// sets by re-walking the route via the same greedy rules, using hops as
	// the budget: if the route claims success in k hops, walking k steps
	// must reach dst without revisits. Verified indirectly: success hop
	// counts are bounded by the number of alive nodes.
	for _, name := range ProtocolNames() {
		p, err := New(name, Config{Bits: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Space()
		alive := overlay.NewBitset(int(s.Size()))
		alive.FillRandomAlive(0.3, overlay.NewRNG(47))
		rng := overlay.NewRNG(53)
		for trial := 0; trial < 1500; trial++ {
			src := overlay.ID(rng.Uint64n(s.Size()))
			dst := overlay.ID(rng.Uint64n(s.Size()))
			alive.Set(int(src))
			alive.Set(int(dst))
			hops, ok := p.Route(src, dst, alive)
			if ok && hops > alive.Count() {
				t.Fatalf("%s: %d hops exceed %d alive nodes — a loop", name, hops, alive.Count())
			}
		}
	}
}

func TestResamplePreservesStructuralInvariants(t *testing.T) {
	// After a Maintainer.Join re-draw, table entries must still satisfy
	// each protocol's structural constraints.
	alive := overlay.NewBitset(1 << 10)
	alive.FillRandomAlive(0.3, overlay.NewRNG(59))
	rng := overlay.NewRNG(61)

	pl, err := NewPlaxton(Config{Bits: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ka, err := NewKademlia(Config{Bits: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := pl.Space()
	// Both prefix tables: entry i stays in x's level-i prefix class.
	for _, p := range []interface {
		Protocol
		Maintainer
	}{pl, ka} {
		for x := overlay.ID(0); x < 50; x++ {
			p.Join(x, alive, rng)
			for i, nb := range p.Neighbors(x) {
				if got := s.FirstDifferingBit(x, nb); got != i+1 {
					t.Fatalf("%s re-draw broke level %d: differs at %d", p.Name(), i+1, got)
				}
			}
		}
	}

	ch, err := NewChord(Config{Bits: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for x := overlay.ID(0); x < 50; x++ {
		ch.Join(x, alive, rng)
		for i, f := range ch.Neighbors(x) {
			dist := s.RingDist(x, f)
			lo := uint64(1) << uint(i)
			if dist < lo || dist >= lo<<1 {
				t.Fatalf("chord re-draw broke finger %d: distance %d", i+1, dist)
			}
		}
	}

	sy, err := NewSymphony(Config{Bits: 10, Seed: 3, SymphonyNear: 2, SymphonyShortcuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for x := overlay.ID(0); x < 50; x++ {
		sy.Join(x, alive, rng)
		nbs := sy.Neighbors(x)
		for j := 0; j < 2; j++ {
			if s.RingDist(x, nbs[j]) != uint64(j+1) {
				t.Fatalf("symphony re-draw broke near link %d", j)
			}
		}
	}
}

func TestResamplePrefersAliveCandidates(t *testing.T) {
	// With plenty of alive candidates per slot, re-joined entries should be
	// overwhelmingly alive (each slot retries up to resampleAttempts).
	k, err := NewKademlia(Config{Bits: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	alive := overlay.NewBitset(1 << 12)
	alive.FillRandomAlive(0.5, overlay.NewRNG(67))
	rng := overlay.NewRNG(71)
	total, aliveCount := 0, 0
	for x := overlay.ID(0); x < 200; x++ {
		k.Join(x, alive, rng)
		// High-order buckets have huge candidate sets; the last bucket has
		// exactly one candidate. Check the first 8 buckets.
		for _, nb := range k.Neighbors(x)[:8] {
			total++
			if alive.Get(int(nb)) {
				aliveCount++
			}
		}
	}
	if frac := float64(aliveCount) / float64(total); frac < 0.95 {
		t.Errorf("repaired contacts alive fraction %v, want ~1 given retries", frac)
	}
}
