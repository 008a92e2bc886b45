package eventsim

import (
	"math"
	"testing"

	"rcm/eventsim/lifetime"
	"rcm/overlay"
)

// TestTransportSpecRoundTrip: TransportSpec is a parseable rendering —
// ParseTransport(TransportSpec(tr)) reconstructs an equivalent transport
// for every value the spec grammar can produce, across a generated corpus
// of latencies and medians.
func TestTransportSpecRoundTrip(t *testing.T) {
	rng := overlay.NewRNG(42)
	corpus := []Transport{
		Constant{},
		Constant{Latency: 0.05},
		Empirical{},
		Empirical{Median: 0.08},
	}
	for i := 0; i < 50; i++ {
		lat := 0.001 + rng.Float64()
		med := 0.001 + rng.Float64()
		corpus = append(corpus, Constant{Latency: lat}, Empirical{Median: med})
	}
	for _, tr := range corpus {
		s := TransportSpec(tr)
		got, err := ParseTransport(s)
		if err != nil {
			t.Errorf("ParseTransport(TransportSpec(%#v) = %q): %v", tr, s, err)
			continue
		}
		// Equivalence, not struct equality: the spec renders defaults
		// explicitly (Constant{} -> "constant:0.05"), so compare the
		// observable latency behavior and the display name.
		if got.Name() != tr.Name() {
			t.Errorf("%q: Name %q != %q", s, got.Name(), tr.Name())
		}
		if math.Abs(got.MinLatency()-tr.MinLatency()) > 1e-12 || math.Abs(got.MaxLatency()-tr.MaxLatency()) > 1e-12 {
			t.Errorf("%q: latency bounds [%v,%v] != [%v,%v]", s,
				got.MinLatency(), got.MaxLatency(), tr.MinLatency(), tr.MaxLatency())
		}
		// And the re-rendered spec is a fixed point.
		if again := TransportSpec(got); again != s {
			t.Errorf("TransportSpec not idempotent: %q -> %q", s, again)
		}
	}
}

// TestLifetimeSpecRoundTrip: the same property for lifetime families —
// lifetime.Parse(lifetime.Spec(f)) reconstructs an equivalent family and
// the rendered spec is a fixed point.
func TestLifetimeSpecRoundTrip(t *testing.T) {
	rng := overlay.NewRNG(7)
	corpus := []lifetime.Family{
		lifetime.Exponential{},
		lifetime.Pareto{},
		lifetime.Pareto{Alpha: 1.5},
		lifetime.Weibull{Shape: 0.5},
		lifetime.Lognormal{Sigma: 1},
	}
	for i := 0; i < 50; i++ {
		corpus = append(corpus,
			lifetime.Pareto{Alpha: 1 + 1e-6 + 3*rng.Float64()},
			lifetime.Weibull{Shape: 0.1 + 3*rng.Float64()},
			lifetime.Lognormal{Sigma: 0.1 + 3*rng.Float64()},
		)
	}
	for _, f := range corpus {
		s := lifetime.Spec(f)
		got, err := lifetime.Parse(s)
		if err != nil {
			t.Errorf("Parse(Spec(%#v) = %q): %v", f, s, err)
			continue
		}
		// The spec renders defaults explicitly (Pareto{} -> "pareto:1.5"),
		// so compare names (which encode the effective shape) and means.
		if got.Name() != f.Name() {
			t.Errorf("%q: Name %q != %q", s, got.Name(), f.Name())
		}
		if again := lifetime.Spec(got); again != s {
			t.Errorf("Spec not idempotent: %q -> %q", s, again)
		}
	}
}
