package figures

import (
	"fmt"

	"rcm/eventsim"
	"rcm/exp"
	"rcm/internal/dht"
	"rcm/internal/table"
)

func init() {
	register("churn", Churn)
}

// Churn is experiment E11 (with the former E16 regime grid folded in): the
// dynamic-failure regime the paper leaves "currently under study" (§1),
// measured with full message dynamics. Every node alternates online and
// offline with exponential sessions, started at equilibrium, so at any
// instant the failure pattern is an i.i.d. Bernoulli draw at
//
//	q_eff = MeanOffline / (MeanOnline + MeanOffline).
//
// The table is protocol × q_eff ∈ {0.20, 0.33} × maintenance ∈ {off, on}:
//
//   - maintain off: routing tables stay as built (the paper's assumption
//     carried into the dynamic setting). The event column should reproduce
//     the static columns — the static graph simulation and the analytic
//     r(N,q), both evaluated by exp.ModeSim|ModeAnalytic at the cell's
//     Config.QEff() on the same overlay — which is the claim that the
//     static model transfers to churn equilibria.
//   - maintain on: every rejoin runs Maintainer.Join and every online node
//     runs Maintainer.Stabilize once per time unit. The success gained over
//     the row above is what maintenance buys back; maint/node/s is what it
//     costs in messages. Protocols without the capability (can) repeat
//     their maintain-off row. Singlehop is the exception E20 explains: its
//     sweep clears rejoiners from views faster than it re-admits them, so
//     maintenance lowers its success.
//
// The regime is slow churn — mean online 40 against lookups that finish in
// well under one time unit — because that is where the q_eff compression
// is exact: the alive pattern is effectively frozen while a lookup is in
// flight. rcm/eventsim's equilibrium_test.go pins exactly this regime to
// the static model within ±0.05 for the five paper protocols; with
// sessions as short as a lookup, nodes die mid-route and success falls
// below the static prediction, which is E18's subject, not this figure's.
func Churn(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const (
		duration   = 8.0
		buckets    = 8
		burnIn     = 1.0
		meanOnline = 40.0
	)
	meanOfflines := []float64{10, 20} // q_eff = 0.20, 0.33
	var settings []eventsim.Config
	for _, meanOffline := range meanOfflines {
		for _, maintain := range []bool{false, true} {
			settings = append(settings, eventsim.Config{
				Scenario: "churn",
				Params: eventsim.Params{
					MeanOnline:  meanOnline,
					MeanOffline: meanOffline,
					Rate:        float64(opt.Pairs) / 4,
				},
				Duration: duration,
				Buckets:  buckets,
				Maintain: maintain,
			})
		}
	}
	var specs []exp.Spec
	for _, name := range dht.ProtocolNames() {
		specs = append(specs, exp.MustSpec(name))
	}
	// Event cells run full message dynamics; 2^10 keeps E11 quick.
	g, err := runEventGrid("churn", opt, 10, specs, settings, exp.ModeEvent, exp.ModeAnalytic, exp.ModeSim)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("E11 — churn steady state vs the static model at q_eff, with and without maintenance (N=2^%d)", g.bits),
		"protocol", "q_eff %", "maintain", "event r%", "static sim r%", "analytic r%", "maint/node/s", "online %")
	for si, s := range specs {
		for i, cfg := range settings {
			// The post-burn-in steady window.
			cell := g.cell(si, i)
			w := foldEvent(cell, burnIn, untilEnd)
			if w.started == 0 {
				return nil, fmt.Errorf("figures: churn cell %s q_eff=%.2f started no lookups", s.Protocol, cfg.QEff())
			}
			maintain := "off"
			if cfg.Maintain {
				maintain = "on"
			}
			t.AddRow(
				s.Protocol,
				table.Pct(cell[0].Q, 0),
				maintain,
				table.Pct(w.success(), 2),
				table.Pct(cell[0].SimRoutability, 2),
				table.Pct(cell[0].AnalyticRoutability, 2),
				table.F(w.meanMaint(), 3),
				table.Pct(w.meanOnline(), 1),
			)
		}
	}
	return []*table.Table{t}, nil
}
