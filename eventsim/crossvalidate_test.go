package eventsim

import (
	"math"
	"testing"

	"rcm/internal/dht"
	"rcm/internal/sim"
)

// TestCrossValidateStaticModel is the CI-enforced agreement check between
// the event layer and the static graph layer: with churn disabled (q = 0)
// and maintenance off, message-level lookup success must match the static
// model's measured routability within ±0.01 for chord, kademlia and the
// hypercube at n = 2^10. At q = 0 both are exactly 1 — any event-engine
// accounting bug (skipped lookups, dropped acks, premature timeouts)
// breaks the equality.
func TestCrossValidateStaticModel(t *testing.T) {
	const bits = 10
	for _, proto := range []string{"chord", "kademlia", "hypercube"} {
		res, err := Run(Config{
			Protocol: proto,
			Overlay:  OverlayConfig{Bits: bits},
			Scenario: "massfail",
			Params:   Params{FailFraction: 0, Rate: 1000},
			Duration: 5,
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		ev := res.WindowSuccess(0, res.Duration)
		p, err := dht.New(proto, dht.Config{Bits: bits, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		static, err := sim.MeasureStaticResilience(p, 0, sim.Options{Pairs: 2000, Trials: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev-static.Routability) > 0.01 {
			t.Errorf("%s q=0: event success %.4f vs static routability %.4f (want within 0.01)",
				proto, ev, static.Routability)
		}
		if total := res.Totals(); total.Failed != 0 || total.Skipped != 0 {
			t.Errorf("%s q=0: %d failed, %d skipped lookups (want 0, 0)", proto, total.Failed, total.Skipped)
		}
	}
}

// TestCrossValidateUnderFailure extends the agreement check to a massive
// failure: after FailFraction q of nodes dies, the event engine's
// per-hop retry discipline (first alive candidate in Forwarder order)
// realizes exactly the static greedy-with-knowledge walk, so steady-state
// success should track measured static routability. Both sides estimate
// over independent failure draws and pair samples, so the tolerance is
// statistical, not the ±0.01 of the q = 0 identity.
func TestCrossValidateUnderFailure(t *testing.T) {
	const (
		bits = 10
		q    = 0.2
	)
	for _, proto := range []string{"chord", "kademlia", "hypercube"} {
		res, err := Run(Config{
			Protocol: proto,
			Overlay:  OverlayConfig{Bits: bits},
			Scenario: "massfail",
			Params:   Params{FailFraction: q, FailTime: 1, Rate: 4000},
			Duration: 10,
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		// Compare well after the failure settles.
		ev := res.WindowSuccess(2, res.Duration)
		p, err := dht.New(proto, dht.Config{Bits: bits, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		static, err := sim.MeasureStaticResilience(p, q, sim.Options{Pairs: 20000, Trials: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev-static.Routability) > 0.05 {
			t.Errorf("%s q=%.1f: event success %.4f vs static routability %.4f (want within 0.05)",
				proto, q, ev, static.Routability)
		}
	}
}
