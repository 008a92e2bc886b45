package dht

import (
	"slices"
	"testing"
	"testing/quick"

	"rcm/overlay"
)

// Property-based tests for the Forwarder capability of all five registry
// protocols: candidate lists must be non-empty and acyclic, every
// candidate must make strict progress under the protocol's ID-space
// distance metric (so routes never move away from the target and retry
// chains terminate), the first-alive-candidate walk must replay Route's
// global-knowledge greedy walk exactly, and failure-free hop counts must
// respect each protocol's analytic bound. Each property runs both under
// testing/quick's randomized seeds and over a fixed-seed regression
// corpus of (bits, seed) overlays, so a regression reproduces exactly.
//
// Chord and Kademlia derive forwarding from the position of a table entry
// instead of scanning the row (see table). The scan they replaced lives on
// here as referenceCandidates / referenceRoute, written once over
// Neighbors and the protocol's metric so it knows nothing of any table
// layout, and TestForwardingMatchesReference holds every Forwarder to it
// entry for entry; TestTableInvariant pins the window invariant the
// derivation rests on. FuzzForwarderOracle (build tag fuzz) drives the same
// comparison from arbitrary inputs.

// forwarderCorpus is the fixed-seed regression corpus: overlay sizes and
// construction seeds replayed deterministically on every test run.
var forwarderCorpus = []struct {
	bits int
	seed uint64
}{
	{6, 1}, {7, 101}, {8, 3}, {9, 7}, {10, 11},
}

// forwarderProtocols enumerates the five built-ins by registry name.
var forwarderProtocols = []string{"plaxton", "can", "kademlia", "chord", "symphony"}

// routeMetric returns the protocol's ID-space distance to the target —
// the quantity the Forwarder contract requires every candidate to
// strictly decrease.
func routeMetric(p Protocol) func(a, b overlay.ID) uint64 {
	s := p.Space()
	switch p.Name() {
	case "chord", "symphony":
		return func(a, b overlay.ID) uint64 { return s.RingDist(a, b) }
	case "kademlia":
		return func(a, b overlay.ID) uint64 { return s.XORDist(a, b) }
	case "can":
		return func(a, b overlay.ID) uint64 { return uint64(s.HammingDist(a, b)) }
	case "plaxton":
		// Leftmost-differing-bit depth: correcting digit i moves the
		// first differing bit right, shrinking d+1-i monotonically.
		return func(a, b overlay.ID) uint64 {
			i := s.FirstDifferingBit(a, b)
			if i == 0 {
				return 0
			}
			return uint64(s.Bits() + 1 - i)
		}
	default:
		return nil
	}
}

func mustForwarder(t *testing.T, name string, bits int, seed uint64) (Protocol, Forwarder) {
	t.Helper()
	p, err := New(name, Config{Bits: bits, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := p.(Forwarder)
	if !ok {
		t.Fatalf("%s does not implement Forwarder", name)
	}
	return p, fwd
}

// checkCandidates verifies the candidate-list invariants at one (x, dst)
// pair: non-empty, no self, no duplicates (acyclic), strict progress.
func checkCandidates(t *testing.T, name string, p Protocol, fwd Forwarder, x, dst overlay.ID) bool {
	t.Helper()
	metric := routeMetric(p)
	cands := fwd.AppendCandidateHops(nil, x, dst)
	if x == dst {
		if len(cands) != 0 {
			t.Errorf("%s: candidates at x==dst: %v", name, cands)
			return false
		}
		return true
	}
	if len(cands) == 0 {
		t.Errorf("%s: empty candidate list for x=%d dst=%d on a full population", name, x, dst)
		return false
	}
	cur := metric(x, dst)
	seen := map[overlay.ID]bool{}
	for _, c := range cands {
		if c == x {
			t.Errorf("%s: candidate list for x=%d contains x itself", name, x)
			return false
		}
		if seen[c] {
			t.Errorf("%s: candidate list for x=%d dst=%d has duplicate %d", name, x, dst, c)
			return false
		}
		seen[c] = true
		if got := metric(c, dst); got >= cur {
			t.Errorf("%s: candidate %d does not make strict progress: metric %d -> %d (x=%d dst=%d)",
				name, c, cur, got, x, dst)
			return false
		}
	}
	return true
}

// TestForwarderCandidateInvariants runs the candidate-list invariants over
// the fixed corpus plus randomized pairs per overlay.
func TestForwarderCandidateInvariants(t *testing.T) {
	for _, name := range forwarderProtocols {
		for _, c := range forwarderCorpus {
			p, fwd := mustForwarder(t, name, c.bits, c.seed)
			size := p.Space().Size()
			rng := overlay.NewRNG(c.seed ^ 0xF0F0)
			for trial := 0; trial < 300; trial++ {
				x := overlay.ID(rng.Uint64n(size))
				dst := overlay.ID(rng.Uint64n(size))
				if !checkCandidates(t, name, p, fwd, x, dst) {
					return
				}
			}
		}
	}
}

// firstAliveWalk replays the event engine's forwarding discipline with an
// oracle alive set: at each hop take the first alive candidate; fail when
// none is alive. Returns hops and success, plus whether the walk stayed
// monotone and loop-free (it must, by the strict-progress invariant).
func firstAliveWalk(p Protocol, fwd Forwarder, src, dst overlay.ID, alive *overlay.Bitset) (hops int, ok, sound bool) {
	metric := routeMetric(p)
	cur := src
	last := metric(src, dst)
	var buf []overlay.ID
	for n := int(p.Space().Size()); hops <= n; hops++ {
		if cur == dst {
			return hops, true, true
		}
		buf = fwd.AppendCandidateHops(buf[:0], cur, dst)
		next := overlay.ID(0)
		found := false
		for _, c := range buf {
			if alive.Get(int(c)) {
				next = c
				found = true
				break
			}
		}
		if !found {
			return hops, false, true
		}
		d := metric(next, dst)
		if d >= last || next == cur {
			return hops, false, false // moved away or looped: unsound
		}
		last = d
		cur = next
	}
	return hops, false, false // exceeded population size: a loop
}

// TestFirstAliveWalkReplaysRoute is the Forwarder contract from the
// registry documentation, enforced exhaustively: against any alive set,
// hop-by-hop forwarding through the first alive candidate must reproduce
// Route's global-knowledge greedy walk — same outcome, same hop count —
// while never increasing the ID-space distance to the target.
func TestFirstAliveWalkReplaysRoute(t *testing.T) {
	for _, name := range forwarderProtocols {
		// Randomized overlays and alive patterns (quick), plus the corpus.
		p, fwd := mustForwarder(t, name, 9, 3)
		size := p.Space().Size()
		f := func(seed uint64, a, b uint16, qSel uint8) bool {
			alive := overlay.NewBitset(int(size))
			q := 0.1 + 0.8*float64(qSel)/255
			alive.FillRandomAlive(1-q, overlay.NewRNG(seed))
			src := overlay.ID(uint64(a) & (size - 1))
			dst := overlay.ID(uint64(b) & (size - 1))
			alive.Set(int(src))
			alive.Set(int(dst))
			wHops, wOK, sound := firstAliveWalk(p, fwd, src, dst, alive)
			rHops, rOK := p.Route(src, dst, alive)
			return sound && wOK == rOK && (!wOK || wHops == rHops)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, c := range forwarderCorpus {
			p, fwd := mustForwarder(t, name, c.bits, c.seed)
			size := p.Space().Size()
			alive := overlay.NewBitset(int(size))
			alive.FillRandomAlive(0.7, overlay.NewRNG(c.seed*7919+1))
			rng := overlay.NewRNG(c.seed ^ 0xBEEF)
			for trial := 0; trial < 200; trial++ {
				src := overlay.ID(rng.Uint64n(size))
				dst := overlay.ID(rng.Uint64n(size))
				alive.Set(int(src))
				alive.Set(int(dst))
				wHops, wOK, sound := firstAliveWalk(p, fwd, src, dst, alive)
				rHops, rOK := p.Route(src, dst, alive)
				if !sound {
					t.Fatalf("%s bits=%d seed=%d: walk src=%d dst=%d increased distance or looped",
						name, c.bits, c.seed, src, dst)
				}
				if wOK != rOK || (wOK && wHops != rHops) {
					t.Fatalf("%s bits=%d seed=%d: walk (%d,%v) != Route (%d,%v) for src=%d dst=%d",
						name, c.bits, c.seed, wHops, wOK, rHops, rOK, src, dst)
				}
			}
		}
	}
}

// TestHopCountsRespectAnalyticBound checks failure-free routes against
// each protocol's analytic hop bound: on a full population, the four
// deterministic-progress geometries resolve one identifier digit (or
// halve the remaining ring distance) per hop, so hops never exceed
// MaxDistance(d) = d; Symphony's probabilistic routing has no d bound,
// but strict ring progress bounds its hops by the initial clockwise
// distance (and therefore by N − 1).
func TestHopCountsRespectAnalyticBound(t *testing.T) {
	for _, name := range forwarderProtocols {
		for _, c := range forwarderCorpus {
			p, fwd := mustForwarder(t, name, c.bits, c.seed)
			size := p.Space().Size()
			alive := overlay.NewBitset(int(size))
			alive.SetAll()
			rng := overlay.NewRNG(c.seed ^ 0xD15C)
			for trial := 0; trial < 200; trial++ {
				src := overlay.ID(rng.Uint64n(size))
				dst := overlay.ID(rng.Uint64n(size))
				hops, ok, sound := firstAliveWalk(p, fwd, src, dst, alive)
				if !ok || !sound {
					t.Fatalf("%s bits=%d: failure-free route src=%d dst=%d failed", name, c.bits, src, dst)
				}
				bound := c.bits
				if name == "symphony" {
					bound = int(p.Space().RingDist(src, dst))
				}
				if hops > bound {
					t.Fatalf("%s bits=%d: %d hops exceed the analytic bound %d (src=%d dst=%d)",
						name, c.bits, hops, bound, src, dst)
				}
			}
		}
	}
}

// referenceCandidates is the scan-dedupe-sort enumeration every table
// protocol shipped before forwarding was derived from the table invariant:
// the neighbors of x strictly closer to dst under the protocol's metric,
// deduplicated, in ascending order of resulting distance with ties keeping
// table order (stable insertion).
func referenceCandidates(p Protocol, x, dst overlay.ID) []overlay.ID {
	metric := routeMetric(p)
	cur := metric(x, dst)
	var out []overlay.ID
outer:
	for _, nb := range p.Neighbors(x) {
		nd := metric(nb, dst)
		if nd >= cur {
			continue
		}
		for _, prev := range out {
			if prev == nb {
				continue outer
			}
		}
		out = append(out, nb)
		j := len(out) - 1
		for j > 0 && metric(out[j-1], dst) > nd {
			out[j] = out[j-1]
			j--
		}
		out[j] = nb
	}
	return out
}

// referenceRoute is the scan-all greedy walk: at every hop the alive
// neighbor that lands strictly closest to dst (first in table order on a
// tie); fail when no alive neighbor makes progress.
func referenceRoute(p Protocol, src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	metric := routeMetric(p)
	cur := src
	hops := 0
	for maxHops := hopCap(p.Space()); hops < maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		best, bestDist := cur, metric(cur, dst)
		for _, nb := range p.Neighbors(cur) {
			if !alive.Get(int(nb)) {
				continue
			}
			if nd := metric(nb, dst); nd < bestDist {
				best, bestDist = nb, nd
			}
		}
		if best == cur {
			return hops, false
		}
		cur = best
	}
	return hops, false
}

// maintain runs a seeded script of Join and Stabilize calls against p (a
// no-op for the hypercube, which has nothing to maintain). Each step picks
// a node, one of the two methods and one of three alive arguments: nil, a
// random set, or the all-dead set — under which every re-draw exhausts its
// retries and the final draw stays in place, alive or not.
func maintain(p Protocol, steps int, seed uint64) {
	m, ok := p.(Maintainer)
	if !ok {
		return
	}
	size := p.Space().Size()
	rng := overlay.NewRNG(seed ^ 0x6d61696e74) // "maint"
	some := overlay.NewBitset(int(size))
	some.FillRandomAlive(0.5, rng)
	alives := []*overlay.Bitset{nil, some, overlay.NewBitset(int(size))}
	for i := 0; i < steps; i++ {
		x := overlay.ID(rng.Uint64n(size))
		alive := alives[rng.Intn(len(alives))]
		if rng.Intn(4) == 0 {
			m.Join(x, alive, rng)
		} else {
			m.Stabilize(x, alive, rng)
		}
	}
}

// aliveSets returns one seeded failure pattern per q in {0, 0.3, 0.6, 0.9}.
func aliveSets(s overlay.Space, seed uint64) []*overlay.Bitset {
	var out []*overlay.Bitset
	for i, q := range []float64{0, 0.3, 0.6, 0.9} {
		alive := overlay.NewBitset(int(s.Size()))
		alive.FillRandomAlive(q, overlay.NewRNG(seed+uint64(i)))
		out = append(out, alive)
	}
	return out
}

// matchesReference holds the shipping Forwarder and Route of p to the
// reference at one (x, dst): the candidate list must be identical entry
// for entry (so, against any alive set, the first alive candidate is the
// reference's greedy hop), and Route must return the reference walk's hop
// count and outcome against every given alive set. x must be a node; dst
// may be any 64-bit value — distances are masked, so an out-of-space dst
// is routed toward and never reached.
func matchesReference(t testing.TB, p Protocol, x, dst overlay.ID, alives []*overlay.Bitset) bool {
	t.Helper()
	got := p.(Forwarder).AppendCandidateHops(nil, x, dst)
	want := referenceCandidates(p, x, dst)
	if !slices.Equal(got, want) {
		t.Errorf("%s bits=%d x=%d dst=%d: candidates %v, reference %v", p.Name(), p.Space().Bits(), x, dst, got, want)
		return false
	}
	for _, alive := range alives {
		hops, ok := p.Route(x, dst, alive)
		if rHops, rOK := referenceRoute(p, x, dst, alive); hops != rHops || ok != rOK {
			t.Errorf("%s bits=%d x=%d dst=%d: Route (%d,%v), reference (%d,%v)", p.Name(), p.Space().Bits(), x, dst, hops, ok, rHops, rOK)
			return false
		}
	}
	return true
}

// TestForwardingMatchesReference is the oracle test: every (x, dst) at
// Bits 5–8 for all five protocols — each dst also lifted out of the space,
// which must change nothing but the final arrival — and 20 000 seeded
// pairs at Bits 10, 12 and 16 for the two protocols whose forwarding is a
// closed form, on a fresh overlay and again after 4·N maintenance calls.
func TestForwardingMatchesReference(t *testing.T) {
	check := func(name string, bits, sampled int) {
		p, _ := mustForwarder(t, name, bits, uint64(bits))
		s := p.Space()
		alives := aliveSets(s, uint64(bits)*131)
		rng := overlay.NewRNG(uint64(bits) ^ 0x0AC1E)
		for _, state := range []string{"fresh", "maintained"} {
			if state == "maintained" {
				maintain(p, 4*int(s.Size()), uint64(bits))
			}
			for i := 0; i < sampled; i++ {
				x, dst := overlay.ID(rng.Uint64n(s.Size())), overlay.ID(rng.Uint64())
				if i%4 != 0 {
					dst &= overlay.ID(s.Size() - 1) // three in four inside the space
				}
				if !matchesReference(t, p, x, dst, alives) {
					t.Fatalf("%s overlay", state)
				}
			}
			if sampled > 0 {
				continue
			}
			for x := overlay.ID(0); uint64(x) < s.Size(); x++ {
				for dst := overlay.ID(0); uint64(dst) < s.Size(); dst++ {
					lifted := dst | overlay.ID(rng.Uint64()<<uint(bits))
					if !matchesReference(t, p, x, dst, alives) || !matchesReference(t, p, x, lifted, alives[1:2]) {
						t.Fatalf("%s overlay", state)
					}
				}
			}
		}
	}
	for _, name := range forwarderProtocols {
		for bits := 5; bits <= 8; bits++ {
			check(name, bits, 0)
		}
	}
	for _, name := range []string{"chord", "kademlia"} {
		for _, bits := range []int{10, 12, 16} {
			check(name, bits, 20000)
		}
	}
}

// TestTableInvariant pins what the closed forms rely on (stated on table):
// after any construction and any sequence of Join / Stabilize calls, chord
// finger i of every node lies at clockwise distance [2^{i−1}, 2^i) and
// kademlia / plaxton contact i first differs from its owner at bit i.
func TestTableInvariant(t *testing.T) {
	f := func(bitsSel uint8, seed uint64, steps uint16) bool {
		bits := 1 + int(bitsSel)%10
		for _, name := range []string{"chord", "kademlia", "plaxton"} {
			p, _ := mustForwarder(t, name, bits, seed)
			maintain(p, int(steps), seed)
			s := p.Space()
			for x := overlay.ID(0); uint64(x) < s.Size(); x++ {
				for i, nb := range p.Neighbors(x) {
					if name == "chord" {
						if dist, lo := s.RingDist(x, nb), uint64(1)<<uint(i); dist < lo || dist >= 2*lo {
							t.Errorf("chord bits=%d seed=%d steps=%d: node %d finger %d at distance %d", bits, seed, steps, x, i+1, dist)
							return false
						}
					} else if got := s.FirstDifferingBit(x, nb); got != i+1 {
						t.Errorf("%s bits=%d seed=%d steps=%d: node %d contact %d first differs at bit %d", name, bits, seed, steps, x, i+1, got)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	for _, c := range forwarderCorpus {
		if !f(uint8(c.bits-1), c.seed, uint16(4<<uint(c.bits))) {
			t.Fatalf("corpus bits=%d seed=%d", c.bits, c.seed)
		}
	}
}
