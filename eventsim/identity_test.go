package eventsim

import (
	"fmt"
	"testing"

	"rcm/internal/dht"
	"rcm/internal/registry"
	"rcm/overlay"
	"rcm/replica"
)

// frozenScenario fails round(q·N) nodes (Params.FailFraction) from the
// start and then runs uniform Poisson lookups over [0, 1]: the failed set
// is fixed before the first lookup and no toggle falls inside any
// lookup's window, the static resilience regime.
const frozenScenario = "test-frozen"

func init() {
	err := RegisterScenario(frozenScenario, func(Params) (Scenario, error) {
		return scenarioFunc{name: frozenScenario, program: func(env *Env) error {
			n, rng := env.Nodes(), env.RNG()
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			for i := 0; i < int(env.Params().FailFraction*float64(n)+0.5); i++ {
				j := i + rng.Intn(n-i)
				ids[i], ids[j] = ids[j], ids[i]
				env.SetOffline(ids[i])
			}
			env.PoissonLookups(0, 1, env.Params().Rate, nil)
			return nil
		}}, nil
	})
	if err != nil {
		panic(err)
	}
}

// verdict is what the identity compares per lookup.
type verdict struct {
	skipped, ok bool
	hops        int
}

// routeVerdict is the static simulator's verdict on one lookup: skipped
// unless src and at least one of dst's k owners are alive, otherwise
// p.Route folded over the alive owners in placement order, hops summed,
// up to the first owner reached — the failover eventsim and
// Cluster.Replay run.
func routeVerdict(t *testing.T, p registry.Protocol, alive *overlay.Bitset, k, src, dst int) verdict {
	t.Helper()
	if !alive.Get(src) {
		return verdict{skipped: true}
	}
	owners, err := replica.For(p, p.Space(), nil, overlay.ID(dst), k)
	if err != nil {
		t.Fatal(err)
	}
	v := verdict{skipped: true}
	for _, o := range owners {
		if !alive.Get(int(o)) {
			continue
		}
		hops, ok := p.Route(overlay.ID(src), o, alive)
		v = verdict{ok: ok, hops: v.hops + hops}
		if ok {
			break
		}
	}
	return v
}

// traceVerdict reads a traced lookup's verdict off its last event.
func traceVerdict(tr Trace) (verdict, bool) {
	for i := len(tr.Events) - 1; i >= 0; i-- {
		switch ev := tr.Events[i]; ev.Kind {
		case TraceSkip, TraceDone, TraceFail:
			return verdict{skipped: ev.Kind == TraceSkip, ok: ev.Kind == TraceDone, hops: ev.Hops}, true
		}
	}
	return verdict{}, false
}

// TestRouteIdentity holds eventsim to the static simulator per lookup.
// Under a failed set fixed before the lookups, with no fault plan and no
// maintenance, every lookup eventsim traces must equal p.Route on the
// same overlay and alive set, in outcome and in hops: both take the
// first alive candidate in the Forwarder's order, and both stop at
// Space.MaxHops. With k = 3 owners Route is folded over the owners alive
// at the start. At q = 0 the paper's r(N, 0) = 1 must also hold: no
// lookup fails and none is skipped.
func TestRouteIdentity(t *testing.T) {
	const seed = 7
	for _, proto := range dht.ProtocolNames() {
		for _, bits := range []int{10, 12} {
			p, err := dht.New(proto, dht.Config{Bits: bits, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []float64{0, 0.2, 0.5} {
				for _, k := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/2^%d/q=%v/k=%d", proto, bits, q, k), func(t *testing.T) {
						checkRouteIdentity(t, p, Config{
							Protocol:  proto,
							Overlay:   OverlayConfig{Bits: bits, Seed: seed},
							Scenario:  frozenScenario,
							Params:    Params{FailFraction: q, Rate: 1000, Replicas: k},
							Duration:  4,
							Seed:      seed,
							Transport: Constant{Latency: 0.01},
							Trace:     1,
						})
					})
				}
			}
		}
	}
}

// checkRouteIdentity runs cfg on p with every lookup traced and holds each
// lookup's verdict to routeVerdict on the schedule's failed set.
func checkRouteIdentity(t *testing.T, p registry.Protocol, cfg Config) {
	res, err := RunOverlay(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Toggles) != 0 {
		t.Fatalf("precondition: %d toggles in a frozen schedule", len(sched.Toggles))
	}
	if len(res.Traces) != len(sched.Lookups) {
		t.Fatalf("traced %d of %d lookups", len(res.Traces), len(sched.Lookups))
	}
	alive := overlay.NewBitset(sched.Nodes)
	alive.SetAll()
	for i, off := range sched.InitialOffline {
		if off {
			alive.Clear(i)
		}
	}
	diverged := 0
	for _, tr := range res.Traces {
		sim, done := traceVerdict(tr)
		if !done {
			t.Fatalf("lookup %d has no verdict by the horizon", tr.Lookup)
		}
		if want := routeVerdict(t, p, alive, cfg.Params.Replicas, tr.Src, tr.Dst); sim != want {
			if diverged < 5 {
				t.Errorf("lookup %d (%d→%d): eventsim %+v, Route %+v", tr.Lookup, tr.Src, tr.Dst, sim, want)
			}
			diverged++
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d lookups diverge", diverged, len(res.Traces))
	}
	if tot := res.Totals(); cfg.Params.FailFraction == 0 && (tot.Failed != 0 || tot.Skipped != 0) {
		t.Errorf("q=0: %d failed, %d skipped lookups (want 0, 0)", tot.Failed, tot.Skipped)
	}
}
