package figures

import (
	"fmt"

	"rcm/eventsim"
	"rcm/exp"
	"rcm/internal/table"
)

func init() {
	register("eventcmp", EventCompare)
}

// EventCompare is experiment E17: the paper's static framework scored
// against message-level protocol dynamics. For chord, kademlia and the
// hypercube, a massfail scenario kills a fraction q of the population
// mid-run and the steady-state lookup success of the event simulator
// (hop-by-hop forwarding, acknowledgements, retransmission timeouts — no
// global knowledge) is tabulated next to the analytic routability r(N,q)
// and the static graph simulation at the same q.
//
// The event column should track the static simulation closely (the
// event engine's per-hop retry discipline realizes the same greedy walk,
// cross-validated in rcm/eventsim's tests), with the analytic column a
// lower bound for ring geometries — transferring the paper's Fig. 6
// agreement to an actual message-passing protocol.
func EventCompare(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const (
		duration = 6.0
		buckets  = 6
		failTime = 1.5
	)
	qs := []float64{0, 0.15, 0.3, 0.45}
	settings := make([]eventsim.Config, 0, len(qs))
	for _, q := range qs {
		settings = append(settings, eventsim.Config{
			Scenario: "massfail",
			Params: eventsim.Params{
				FailFraction: q,
				FailTime:     failTime,
				Rate:         float64(opt.Pairs),
			},
			Duration: duration,
			Buckets:  buckets,
		})
	}
	specs := []exp.Spec{exp.MustSpec("chord"), exp.MustSpec("kademlia"), exp.MustSpec("can")}
	// Event cells run full message dynamics; 2^10 keeps E17 quick.
	g, err := runEventGrid("eventcmp", opt, 10, specs, settings, exp.ModeEvent, exp.ModeAnalytic, exp.ModeSim)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("E17: static model vs message-level event simulation, massfail, N=2^%d", g.bits),
		"geometry", "q", "analytic r%", "static sim r%", "event r%", "event-static")
	for si, s := range specs {
		name := s.Geometry.Name()
		for qi, q := range qs {
			// The post-fail steady state: windows starting after the
			// failure has settled.
			cell := g.cell(si, qi)
			w := foldEvent(cell, failTime, untilEnd)
			if w.started == 0 {
				return nil, fmt.Errorf("figures: eventcmp missing group %s q=%v", name, q)
			}
			static := cell[0].SimRoutability
			t.AddRow(
				name,
				table.F(q, 2),
				table.Pct(cell[0].AnalyticRoutability, 2),
				table.Pct(static, 2),
				table.Pct(w.success(), 2),
				table.F(100*(w.success()-static), 2),
			)
		}
	}
	return []*table.Table{t}, nil
}
