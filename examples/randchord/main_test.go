package main

import (
	"testing"

	"rcm"
	"rcm/overlay"
)

// The Forwarder contract the built-ins are held to in
// internal/dht/forwarder_property_test.go, applied to this example's
// protocol (a main package, so the in-tree test cannot import it):
// candidates are distinct, never x itself and strictly closer to dst, and
// forwarding through the first alive candidate replays Route — same
// verdict, same hop count — against any alive set.
func TestForwarderContract(t *testing.T) {
	for _, c := range []struct {
		bits int
		seed uint64
	}{{6, 1}, {8, 3}, {10, 11}} {
		built, err := rcm.NewProtocol("randchord", rcm.Config{Bits: c.bits, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		p := built.(*protocol)
		s := p.Space()
		alive := overlay.NewBitset(int(s.Size()))
		alive.FillRandomAlive(0.6, overlay.NewRNG(c.seed*7919+1))
		rng := overlay.NewRNG(c.seed ^ 0xBEEF)
		for trial := 0; trial < 300; trial++ {
			src := overlay.ID(rng.Uint64n(s.Size()))
			dst := overlay.ID(rng.Uint64n(s.Size()))
			alive.Set(int(src))
			alive.Set(int(dst))

			hops, ok := 0, true
			var buf []overlay.ID
			for cur := src; cur != dst; hops++ {
				buf = p.AppendCandidateHops(buf[:0], cur, dst)
				seen := map[overlay.ID]bool{}
				next, found := cur, false
				for _, cand := range buf {
					if cand == cur || seen[cand] || s.RingDist(cand, dst) >= s.RingDist(cur, dst) {
						t.Fatalf("bits=%d: candidates %v of x=%d dst=%d: %d is self, repeated or no closer", c.bits, buf, cur, dst, cand)
					}
					seen[cand] = true
					if !found && alive.Get(int(cand)) {
						next, found = cand, true
					}
				}
				if !found {
					ok = false
					break
				}
				cur = next
			}
			if rHops, rOK := p.Route(src, dst, alive); ok != rOK || (ok && hops != rHops) {
				t.Fatalf("bits=%d: first-alive walk (%d,%v) != Route (%d,%v) for src=%d dst=%d", c.bits, hops, ok, rHops, rOK, src, dst)
			}
		}
	}
}

// Join and Stabilize keep every finger inside its window, prefer alive
// nodes, and bill two messages per probe.
func TestMaintainerKeepsWindows(t *testing.T) {
	built, err := rcm.NewProtocol("randchord", rcm.Config{Bits: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := built.(*protocol)
	s := p.Space()
	alive := overlay.NewBitset(int(s.Size()))
	alive.FillRandomAlive(0.5, overlay.NewRNG(59))
	rng := overlay.NewRNG(61)
	fingers, aliveFingers := 0, 0
	for x := overlay.ID(0); x < 50; x++ {
		slots := s.Bits() * p.r
		if cost := p.Join(x, alive, rng); cost < 2*slots || cost > 2*16*slots {
			t.Fatalf("Join(%d) cost %d outside [2, 32] messages per finger", x, cost)
		}
		if cost := p.Stabilize(x, alive, rng); cost < 2 || cost > 2*16 {
			t.Fatalf("Stabilize(%d) cost %d outside [2, 32]", x, cost)
		}
		for i, f := range p.Neighbors(x) {
			lo := uint64(1) << uint(i/p.r)
			if dist := s.RingDist(x, f); dist < lo || dist >= 2*lo {
				t.Fatalf("finger %d of %d left window %d: distance %d", i, x, i/p.r+1, dist)
			}
			// The wide windows have plenty of alive candidates.
			if i/p.r >= 4 {
				fingers++
				if alive.Get(int(f)) {
					aliveFingers++
				}
			}
		}
	}
	if frac := float64(aliveFingers) / float64(fingers); frac < 0.95 {
		t.Errorf("re-drawn fingers alive fraction %v, want ~1 given 16 probes", frac)
	}
}
