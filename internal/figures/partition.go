package figures

import (
	"fmt"

	"rcm/eventsim"
	"rcm/exp"
	"rcm/internal/core"
	"rcm/internal/table"
)

func init() {
	register("partition", Partition)
}

// Partition is experiment E21: routability through a network partition,
// scored against the static framework's prediction. A 2-way partition
// splits the population down a deterministic cut for the middle third of
// the run (rcm/fault's partition clause, injected at the transport);
// from any source's viewpoint the other half of the population is
// unreachable, which the static model summarizes as a failed fraction
// q = 1/2. The predicted lookup success is then (1−q)·r(N,q) — the
// destination must sit on the source's side of the cut AND the greedy
// path must avoid it — and, with k independent replicas, one minus that
// failing k times.
//
// The event columns measure the same three regimes with full message
// dynamics: before the cut (healthy baseline), during it (cross-cut
// requests blackhole and burn their retransmission budgets), and after
// it heals (recovery — routing state was never torn down, so success
// snaps back without repair traffic). The k = 3 row is the graceful-
// degradation claim in one line: replica failover converts the cut from
// "half the keyspace is gone" into a modest dent.
func Partition(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const (
		duration = 6.0
		buckets  = 6
		from, to = 2.0, 4.0
		q        = 0.5 // a 2-way cut hides half the population from any source
	)
	transport, err := eventsim.ParseTransport(fmt.Sprintf("fault:partition:2@%g-%g/constant:0.01", from, to))
	if err != nil {
		return nil, err
	}
	ks := []int{1, 3}
	settings := make([]eventsim.Config, 0, len(ks))
	for _, k := range ks {
		settings = append(settings, eventsim.Config{
			Scenario:  "faultstorm",
			Transport: transport,
			Params: eventsim.Params{
				Rate:     float64(opt.Pairs),
				Replicas: k,
			},
			Duration: duration,
			Buckets:  buckets,
		})
	}
	specs := []exp.Spec{exp.MustSpec("chord"), exp.MustSpec("kademlia")}
	// Full message dynamics; 2^8 keeps E21 quick.
	g, err := runEventGrid("partition", opt, 8, specs, settings, exp.ModeEvent)
	if err != nil {
		return nil, err
	}

	// Static predictions per geometry: r(N, 1/2) from the paper's
	// framework, then success = (1−q)·r and its k-replica extension.
	pred := map[string][2]float64{} // geometry name → {k=1, k=3}
	for _, geom := range core.AllGeometries() {
		r, err := core.Routability(geom, g.bits, q)
		if err != nil {
			continue // geometries without an analytic form don't appear here
		}
		single := (1 - q) * r
		pred[geom.Name()] = [2]float64{single, 1 - (1-single)*(1-single)*(1-single)}
	}

	// Each cell's lookups fall into three regimes by window start: before
	// the cut, during it, after it heals.
	regimes := [][2]float64{{0, from}, {from, to}, {to, untilEnd}}

	t := table.New(fmt.Sprintf("E21 — routability through a 2-way partition (window [%g, %g)) vs static model at q=%.2g (N=2^%d)", from, to, q, g.bits),
		"protocol", "k", "pre %", "during %", "post %", "static pred %")
	for si, s := range specs {
		name := s.Geometry.Name()
		for i, k := range ks {
			cell := g.cell(si, i)
			cells := []string{s.Protocol, table.I(k)}
			for regime, bounds := range regimes {
				w := foldEvent(cell, bounds[0], bounds[1])
				if w.started == 0 {
					return nil, fmt.Errorf("figures: partition %s k=%d regime %d started no lookups", name, k, regime)
				}
				cells = append(cells, table.Pct(w.success(), 2))
			}
			p, ok := pred[name]
			if !ok {
				return nil, fmt.Errorf("figures: partition has no static prediction for %s", name)
			}
			cells = append(cells, table.Pct(p[i], 2))
			t.AddRow(cells...)
		}
	}
	return []*table.Table{t}, nil
}
