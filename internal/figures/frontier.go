package figures

import (
	"fmt"

	"rcm/eventsim"
	"rcm/exp"
	"rcm/internal/table"
)

func init() {
	register("frontier", Frontier)
}

// frontierCells are E20's churn × replication settings, run for every
// protocol. The exponential row is the friendly regime every DHT quotes;
// the Pareto rows front-load the session hazard (PR 4's heavy-tailed
// churn) at the same mean online/offline times, and the k=3 row buys back
// lost lookups with replica failover paid for in repair bandwidth.
var frontierCells = []struct {
	label, scenario, lifetime string
	replicas                  int
}{
	{"exp", "churn", "", 0},
	{"pareto a=1.2", "heavytail", "pareto:1.2", 0},
	{"pareto a=1.2", "heavytail", "pareto:1.2", 3},
}

// Frontier is experiment E20: the latency-vs-maintenance frontier that
// motivates the whole geometry comparison, measured with full message
// dynamics. Chord and Kademlia sit at the multi-hop corner — O(log N)
// lookup hops for O(log N) routing state and cheap stabilization — while
// singlehop (the D1HT family) sits at the opposite corner: every lookup
// is one hop, paid for with O(N) membership views whose join transfers
// and sweep probes dominate the maintenance column.
//
// The heavy-tailed rows are where single-hop's O(1) claim breaks down:
// a Pareto session distribution at the same mean online time front-loads
// the hazard into many short sessions, so nodes die and rejoin far more
// often than the exponential row. Every rejoin leaves the rejoiner
// invisible to any peer whose stabilization sweep cleared it while it was
// down — and with a full view refresh taking sweepFraction rounds, those
// stale-dead entries outlive the run. One-hop routing has no detour
// around a stale view (the lookup fails outright), so singlehop's success
// sags below the multi-hop rows under the same churn summary q_eff,
// while its maintenance bill grows with the extra O(N) join transfers.
// The k=3 row shows the repair half of the tentpole: replica failover
// restores most of the lost lookups at a visible repair/node/s cost.
func Frontier(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const (
		duration    = 6.0
		meanOnline  = 4.0
		meanOffline = 1.0
		burnIn      = 1.0
		buckets     = 6
	)
	settings := make([]eventsim.Config, 0, len(frontierCells))
	for _, cell := range frontierCells {
		settings = append(settings, eventsim.Config{
			Scenario: cell.scenario,
			Params: eventsim.Params{
				MeanOnline:  meanOnline,
				MeanOffline: meanOffline,
				Rate:        float64(opt.Pairs),
				Lifetime:    cell.lifetime,
				Replicas:    cell.replicas,
			},
			Duration: duration,
			Buckets:  buckets,
			Maintain: true,
		})
	}
	specs := []exp.Spec{exp.MustSpec("chord"), exp.MustSpec("kademlia"), exp.MustSpec("singlehop")}
	// 2^9 nodes: O(N) singlehop maintenance stays tractable.
	g, err := runEventGrid("frontier", opt, 9, specs, settings, exp.ModeEvent)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("E20 — latency-vs-maintenance frontier: multi-hop vs single-hop vs k-replication under churn (N=2^%d)", g.bits),
		"protocol", "churn", "k", "event r%", "mean hops", "latency", "maint/node/s", "repair/node/s", "online %")
	for si, s := range specs {
		for i, cell := range frontierCells {
			// The post-burn-in steady window.
			w := foldEvent(g.cell(si, i), burnIn, untilEnd)
			if w.started == 0 || w.completed == 0 {
				return nil, fmt.Errorf("figures: frontier missing group %s/%s k=%d", s.Geometry.Name(), cell.label, cell.replicas)
			}
			k := cell.replicas
			if k == 0 {
				k = 1
			}
			t.AddRow(
				s.Protocol,
				cell.label,
				table.I(k),
				table.Pct(w.success(), 2),
				table.F(w.meanHops(), 2),
				table.F(w.meanLatency(), 3),
				table.F(w.meanMaint(), 3),
				table.F(w.meanRepair(), 3),
				table.Pct(w.meanOnline(), 1),
			)
		}
	}
	return []*table.Table{t}, nil
}
