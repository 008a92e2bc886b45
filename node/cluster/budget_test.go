package cluster

import (
	"testing"
	"time"

	"rcm"
	"rcm/eventsim"
	"rcm/overlay"
)

// detourProtocol is a test-only Forwarder that spends a route's hop
// budget instead of making progress. Asked at x about an even dst, it
// first offers the next identifier clockwise that is not dst, so a route
// visits every other node once and comes back to its source at delivery
// MaxHops = N − 1; asked there a second time, it offers dst, which the
// route reaches at delivery MaxHops + 1, one past the budget. For an odd
// dst it walks plainly clockwise, so a route from dst + 1 arrives at
// delivery MaxHops, the longest route the budget lets through. No node
// but the source sees a request twice, so the live node's dedupe window
// never meets one.
//
// The second answer is why the protocol keeps state: it counts the
// questions it was asked per (x, dst). Every executor builds its own
// instance, and the budget scenario gives each lookup its own dst and
// runs the lookups one at a time, so the counts of one lookup are never
// another's.
const detourProtocol = "test-detour"

// budgetScenario issues one lookup for every destination of the
// population, each from the node after it — half of them the detour's
// budget-spending routes and half its MaxHops-long ones — half a second
// apart.
const budgetScenario = "test-budget"

type detour struct {
	space overlay.Space
	asked map[[2]overlay.ID]int
}

func init() {
	err := rcm.RegisterProtocol(detourProtocol, func(cfg rcm.Config) (rcm.Protocol, error) {
		s, err := overlay.NewSpace(cfg.Bits)
		if err != nil {
			return nil, err
		}
		return &detour{space: s, asked: map[[2]overlay.ID]int{}}, nil
	})
	if err != nil {
		panic(err)
	}
	err = eventsim.RegisterScenario(budgetScenario, func(eventsim.Params) (eventsim.Scenario, error) {
		return progScenario{name: budgetScenario, prog: func(env *eventsim.Env) error {
			for dst := 0; dst < env.Nodes(); dst++ {
				env.LookupAt(0.25+0.5*float64(dst), (dst+1)%env.Nodes(), dst)
			}
			return nil
		}}, nil
	})
	if err != nil {
		panic(err)
	}
}

func (p *detour) Name() string         { return detourProtocol }
func (p *detour) Space() overlay.Space { return p.space }

func (p *detour) Neighbors(x overlay.ID) []overlay.ID {
	return []overlay.ID{overlay.ID((uint64(x) + 1) % p.space.Size())}
}

// next is the detour's answer the asked-th time x is asked about dst.
func (p *detour) next(x, dst overlay.ID, asked int) overlay.ID {
	if asked > 0 {
		return dst
	}
	y := overlay.ID((uint64(x) + 1) % p.space.Size())
	if y == dst && dst%2 == 0 {
		y = overlay.ID((uint64(y) + 1) % p.space.Size())
	}
	return y
}

func (p *detour) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	k := [2]overlay.ID{x, dst}
	p.asked[k]++
	return append(buf, p.next(x, dst, p.asked[k]-1))
}

// Route walks the detour under the budget rule every built-in Route
// follows, counting its own questions.
func (p *detour) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	asked := map[overlay.ID]int{}
	cur := src
	hops := 0
	for maxHops := p.space.MaxHops(); hops <= maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		next := p.next(cur, dst, asked[cur])
		asked[cur]++
		if !alive.Get(int(next)) {
			return hops, false
		}
		cur = next
	}
	return hops, false
}

// TestHopBudgetOneVerdict holds the live node, eventsim and Route to the
// one budget rule of Space.MaxHops: a route of MaxHops hops succeeds, and
// one that has not arrived by then fails at delivery MaxHops + 1, on the
// destination here. The three must agree per lookup on outcome and hops,
// and the live node and eventsim on the requests and acknowledgements
// sent.
func TestHopBudgetOneVerdict(t *testing.T) {
	cfg := eventsim.Config{
		Protocol:    detourProtocol,
		Overlay:     eventsim.OverlayConfig{Bits: 4, Seed: 3},
		Scenario:    budgetScenario,
		Duration:    8,
		Seed:        3,
		Transport:   eventsim.Constant{Latency: 0.01},
		Retransmits: -1,
		Trace:       1,
	}
	c := bootCluster(t, cfg, "sim", 15*time.Millisecond)
	res := checkLookups(t, cfg, c)
	maxHops := c.Protocol().Space().MaxHops()
	for _, tr := range res.Traces {
		last := tr.Events[len(tr.Events)-1]
		want := eventsim.TraceDone
		hops := maxHops
		if tr.Dst%2 == 0 {
			want, hops = eventsim.TraceFail, maxHops+1
		}
		if last.Kind != want || last.Hops != hops {
			t.Errorf("lookup %d (%d → %d) ended %v at %d hops, want %v at %d", tr.Lookup, tr.Src, tr.Dst, last.Kind, last.Hops, want, hops)
		}
	}
	m := c.Metrics()
	if sim := res.Totals().LookupMessages; uint64(sim) != m.ReqsOut+m.AcksOut {
		t.Errorf("eventsim sent %d requests and acknowledgements, the live nodes %d + %d", sim, m.ReqsOut, m.AcksOut)
	}
}
