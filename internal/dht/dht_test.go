package dht

import (
	"strings"
	"testing"

	"rcm/overlay"
)

// allAlive returns a bitset with every node alive.
func allAlive(s overlay.Space) *overlay.Bitset {
	b := overlay.NewBitset(int(s.Size()))
	b.SetAll()
	return b
}

// buildAll constructs one instance of each protocol at the given size.
func buildAll(t *testing.T, bits int) []Protocol {
	t.Helper()
	out := make([]Protocol, 0, len(ProtocolNames()))
	for _, name := range ProtocolNames() {
		p, err := New(name, Config{Bits: bits, Seed: 42})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, p)
	}
	return out
}

func TestNewAliases(t *testing.T) {
	aliases := map[string]string{
		"plaxton":   "plaxton",
		"tree":      "plaxton",
		"CAN":       "can",
		"hypercube": "can",
		"kademlia":  "kademlia",
		"XOR":       "kademlia",
		"chord":     "chord",
		"ring":      "chord",
		"symphony":  "symphony",
	}
	for alias, want := range aliases {
		p, err := New(alias, Config{Bits: 4, Seed: 1})
		if err != nil {
			t.Fatalf("New(%q): %v", alias, err)
		}
		if p.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", alias, p.Name(), want)
		}
	}
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New("pastry", Config{Bits: 4}); err == nil {
		t.Error("unknown protocol accepted")
	} else if !strings.Contains(err.Error(), "pastry") {
		t.Errorf("error does not name the protocol: %v", err)
	}
}

func TestNewBadBits(t *testing.T) {
	for _, name := range ProtocolNames() {
		if _, err := New(name, Config{Bits: 0}); err == nil {
			t.Errorf("%s: bits=0 accepted", name)
		}
		if _, err := New(name, Config{Bits: MaxSimBits + 1}); err == nil {
			t.Errorf("%s: bits over cap accepted", name)
		}
	}
}

func TestRouteToSelf(t *testing.T) {
	for _, p := range buildAll(t, 6) {
		alive := allAlive(p.Space())
		hops, ok := p.Route(5, 5, alive)
		if !ok || hops != 0 {
			t.Errorf("%s: route to self = (%d, %v), want (0, true)", p.Name(), hops, ok)
		}
	}
}

func TestAllPairsRoutableWithoutFailures(t *testing.T) {
	// With every node alive, every ordered pair must be routable — the
	// perfect-topology precondition of §4.1. Exhaustive at d=6 (4032 pairs).
	for _, p := range buildAll(t, 6) {
		s := p.Space()
		alive := allAlive(s)
		n := int(s.Size())
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				hops, ok := p.Route(overlay.ID(src), overlay.ID(dst), alive)
				if !ok {
					t.Fatalf("%s: route %d->%d failed with all nodes alive", p.Name(), src, dst)
				}
				if hops < 1 {
					t.Fatalf("%s: route %d->%d took %d hops", p.Name(), src, dst, hops)
				}
			}
		}
	}
}

func TestHopBoundsWithoutFailures(t *testing.T) {
	// Prefix-correcting protocols take at most d hops; Chord takes O(d) and
	// Symphony O(d²) in expectation — generous caps catch runaway routes.
	bounds := map[string]int{
		"plaxton":   10,      // exactly <= d
		"can":       10,      // exactly <= d (Hamming distance)
		"kademlia":  10,      // one prefix bit per hop
		"chord":     4 * 10,  // greedy fingers
		"symphony":  40 * 10, // O(log² N) expected
		"singlehop": 1,       // full table: exactly one hop
	}
	for _, p := range buildAll(t, 10) {
		s := p.Space()
		alive := allAlive(s)
		rng := overlay.NewRNG(7)
		maxSeen := 0
		for trial := 0; trial < 3000; trial++ {
			src := overlay.ID(rng.Uint64n(s.Size()))
			dst := overlay.ID(rng.Uint64n(s.Size()))
			if src == dst {
				continue
			}
			hops, ok := p.Route(src, dst, alive)
			if !ok {
				t.Fatalf("%s: route failed with all alive", p.Name())
			}
			if hops > maxSeen {
				maxSeen = hops
			}
		}
		if maxSeen > bounds[p.Name()] {
			t.Errorf("%s: max hops %d exceeds bound %d", p.Name(), maxSeen, bounds[p.Name()])
		}
	}
}

func TestNeighborsReturnsCopy(t *testing.T) {
	for _, p := range buildAll(t, 6) {
		a := p.Neighbors(1)
		a[0] = overlay.ID(63)
		b := p.Neighbors(1)
		if len(a) > 0 && len(b) > 0 && b[0] == overlay.ID(63) && a[0] == b[0] {
			// Only fails if mutation leaked AND original differs; re-check
			// against a fresh protocol to be strict.
			p2, err := New(p.Name(), Config{Bits: 6, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if p2.Neighbors(1)[0] != overlay.ID(63) {
				t.Errorf("%s: Neighbors exposes internal table", p.Name())
			}
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	for _, name := range ProtocolNames() {
		p1, err := New(name, Config{Bits: 8, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := New(name, Config{Bits: 8, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for x := overlay.ID(0); x < 256; x++ {
			n1, n2 := p1.Neighbors(x), p2.Neighbors(x)
			for i := range n1 {
				if n1[i] != n2[i] {
					t.Fatalf("%s: same seed built different tables at node %d", name, x)
				}
			}
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	// Randomized protocols must produce different tables for different
	// seeds (the hypercube is deterministic and exempt).
	for _, name := range []string{"plaxton", "kademlia", "chord", "symphony"} {
		p1, err := New(name, Config{Bits: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := New(name, Config{Bits: 10, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for x := overlay.ID(0); x < 1024; x++ {
			n1, n2 := p1.Neighbors(x), p2.Neighbors(x)
			for i := range n1 {
				if n1[i] != n2[i] {
					diff++
				}
			}
		}
		if diff == 0 {
			t.Errorf("%s: seeds 1 and 2 built identical tables", name)
		}
	}
}
