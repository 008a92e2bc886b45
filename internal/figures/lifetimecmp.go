package figures

import (
	"fmt"

	"rcm/eventsim"
	"rcm/exp"
	"rcm/internal/table"
)

func init() {
	register("lifetimecmp", LifetimeCompare)
}

// lifetimeFamilies are the session-distribution shapes E18 sweeps, all
// pinned to the same mean online time so q_eff is identical across rows
// and any spread is attributable purely to the lifetime shape.
var lifetimeFamilies = []struct {
	label, spec string
}{
	{"exp", "exp"},
	{"pareto a=1.5", "pareto:1.5"},
	{"weibull k=0.5", "weibull:0.5"},
	{"lognormal s=1.5", "lognormal:1.5"},
}

// LifetimeCompare is experiment E18: the paper's q_eff churn summary
// scored against lifetime *shape* at equal mean online time. For chord
// and kademlia, every node churns with mean online 4 and mean offline 1
// (q_eff = 0.2, slow relative to lookups) under four session-time
// families — memoryless exponential, heavy-tailed Pareto, stretched-
// exponential Weibull and lognormal — with join/stabilize maintenance on.
// Columns report steady-window lookup success, the gap to the static
// simulation at q_eff, mean hops, maintenance traffic and realized
// availability.
//
// The static summary depends on the means only, so its prediction is one
// number per protocol; the spread down each protocol's block is the
// modeling error of compressing churn into q_eff. With the horizon a
// small multiple of the mean session (the regime here), the heavy-tailed
// families' front-loaded hazard — many sessions far shorter than the
// mean, balanced by rare huge ones — drags realized availability and
// lookup success measurably below the exponential row at identical
// q_eff, and maintenance traffic up with the extra join churn. (In the
// opposite, slow-churn regime the deviation flips sign; rcm/eventsim's
// equilibrium conformance suite locks both directions in as tests.)
func LifetimeCompare(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const (
		duration    = 8.0
		meanOnline  = 4.0
		meanOffline = 1.0
		burnIn      = 1.0
		buckets     = 8
	)
	settings := make([]eventsim.Config, 0, len(lifetimeFamilies))
	for _, fam := range lifetimeFamilies {
		scenario := "churn"
		if fam.spec != "exp" {
			scenario = "heavytail"
		}
		settings = append(settings, eventsim.Config{
			Scenario: scenario,
			Params: eventsim.Params{
				MeanOnline:  meanOnline,
				MeanOffline: meanOffline,
				Rate:        float64(opt.Pairs),
				Lifetime:    fam.spec,
			},
			Duration: duration,
			Buckets:  buckets,
			Maintain: true,
		})
	}
	specs := []exp.Spec{exp.MustSpec("chord"), exp.MustSpec("kademlia")}
	// Event cells run full message dynamics; 2^10 keeps E18 quick.
	g, err := runEventGrid("lifetimecmp", opt, 10, specs, settings, exp.ModeEvent, exp.ModeSim)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("E18: lookup performance vs lifetime family at equal mean online time, churn q_eff=0.2, N=2^%d", g.bits),
		"geometry", "lifetime", "event r%", "static sim r%", "event-static", "mean hops", "maint/node/s", "online %")
	for si, s := range specs {
		name := s.Geometry.Name()
		for i, fam := range lifetimeFamilies {
			// The post-burn-in steady window.
			cell := g.cell(si, i)
			w := foldEvent(cell, burnIn, untilEnd)
			if w.started == 0 || w.completed == 0 {
				return nil, fmt.Errorf("figures: lifetimecmp missing group %s/%s", name, fam.label)
			}
			static := cell[0].SimRoutability
			t.AddRow(
				name,
				fam.label,
				table.Pct(w.success(), 2),
				table.Pct(static, 2),
				fmt.Sprintf("%+.4f", w.success()-static),
				table.F(w.meanHops(), 2),
				table.F(w.meanMaint(), 3),
				table.Pct(w.meanOnline(), 1),
			)
		}
	}
	return []*table.Table{t}, nil
}
