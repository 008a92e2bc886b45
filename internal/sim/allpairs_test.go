package sim

import (
	"math"
	"testing"

	"rcm/overlay"
)

func TestAllPairsNoFailure(t *testing.T) {
	p := buildProtocol(t, "chord", 8)
	r := measure(t, p, 0, Options{AllPairs: true, Trials: 1, Seed: 3})
	if r.Routability != 1 {
		t.Errorf("all-pairs q=0 routability = %v", r.Routability)
	}
	// 256 alive nodes → 256·255 ordered pairs.
	if r.Pairs != 256*255 {
		t.Errorf("routed pairs = %d, want %d", r.Pairs, 256*255)
	}
}

func TestSampledEstimateMatchesExhaustive(t *testing.T) {
	// The sampled estimator must be unbiased: with many samples it lands on
	// the exhaustive all-pairs value for the same failure pattern seed.
	p := buildProtocol(t, "kademlia", 9)
	exact := measure(t, p, 0.3, Options{AllPairs: true, Trials: 3, Seed: 5})
	sampled := measure(t, p, 0.3, Options{Pairs: 60000, Trials: 3, Seed: 5})
	if math.Abs(exact.Routability-sampled.Routability) > 0.01 {
		t.Errorf("sampled %v vs exhaustive %v", sampled.Routability, exact.Routability)
	}
}

func TestAllPairsMatchesDefinitionOne(t *testing.T) {
	// Cross-check the exhaustive measurement against a direct O(n²)
	// reimplementation for one failure pattern, rebuilt here from the
	// documented stream derivation: NewRNG(seed ^ "RESL"), one Split per
	// trial, one Bernoulli(1−q) per node in identifier order.
	const (
		seed = 9
		q    = 0.4
	)
	p := buildProtocol(t, "can", 7)
	r := measure(t, p, q, Options{AllPairs: true, Trials: 1, Seed: seed})

	n := int(p.Space().Size())
	trial := overlay.NewRNG(seed ^ 0x5245534c).Split()
	alive := overlay.NewBitset(n)
	var nodes []overlay.ID
	for i := 0; i < n; i++ {
		if trial.Bernoulli(1 - q) {
			alive.Set(i)
			nodes = append(nodes, overlay.ID(i))
		}
	}
	var routed, hops int
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if h, ok := p.Route(src, dst, alive); ok {
				routed++
				hops += h
			}
		}
	}
	pairs := len(nodes) * (len(nodes) - 1)
	if routed == 0 || routed == pairs {
		t.Fatalf("degenerate pattern: %d of %d pairs routed", routed, pairs)
	}
	if r.Pairs != pairs {
		t.Errorf("routed pairs = %d, want %d", r.Pairs, pairs)
	}
	if want := float64(routed) / float64(pairs); r.Routability != want {
		t.Errorf("routability = %v, Definition 1 gives %v", r.Routability, want)
	}
	if want := float64(hops) / float64(routed); r.MeanHops != want {
		t.Errorf("mean hops = %v, want %v", r.MeanHops, want)
	}
	if want := float64(len(nodes)) / float64(n); r.AliveFraction != want {
		t.Errorf("alive fraction = %v, want %v", r.AliveFraction, want)
	}
}

func TestAllPairsHopAccounting(t *testing.T) {
	p := buildProtocol(t, "can", 6)
	r := measure(t, p, 0, Options{AllPairs: true, Trials: 1, Seed: 1})
	// Hypercube mean hops over all pairs = mean Hamming distance =
	// d·2^{d-1}/(2^d−1) for d=6: 6·32/63.
	want := 6.0 * 32 / 63
	if math.Abs(r.MeanHops-want) > 1e-9 {
		t.Errorf("mean hops = %v, want %v", r.MeanHops, want)
	}
}
