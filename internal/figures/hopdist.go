package figures

import (
	"fmt"
	"math"
	"time"

	"rcm/eventsim"
	"rcm/internal/core"
	"rcm/internal/markov"
	"rcm/internal/table"
	"rcm/node/cluster"
	"rcm/obs"
)

func init() {
	register("hopdist", HopDistribution)
}

// HopDistribution is experiment E19: the full hop-count *distribution*,
// three ways, per protocol. The Markov chains predict not just the mean
// route length but its entire law — StepDistribution mixed over the
// target distance h with weights n(h)·p(h,q) (the probability the
// target sits h hops away and the route survives). That analytic
// distribution is tabulated bucket for bucket against the event
// simulator's steady-state hop histogram and against a live in-process
// cluster replaying the identical schedule over the same seed-pinned
// tables. The event and live columns agree exactly (the conformance
// suite pins their histograms equal); the analytic column tracks them
// statistically, since the simulator samples concrete (src, dst) pairs
// from one overlay realization. A side-product visible across the two
// tables: chord and kademlia share the same wire hop law even though
// their phase-level geometries differ.
func HopDistribution(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	bits := opt.Bits
	if bits > 7 {
		bits = 7 // live replay boots 2^bits real nodes; 128 keeps E19 quick
	}
	qs := []float64{0, 0.2}
	// The analytic column needs the *hop-granular* law, and for both
	// protocols that is the XOR/binomial one: a kademlia hop clears one
	// set bit of the XOR distance, and a chord hop clears one set bit of
	// the clockwise offset — popcount either way, so n(h) = C(d,h)
	// targets need h hops. (The ring geometry's n(h) = 2^{h−1} counts
	// *phases* — bit positions below the highest set bit — which
	// upper-bounds hops: zero bits are crossed for free. Ring phases are
	// the right currency for routability, not for the wire histogram.)
	protocols := []struct {
		name  string
		geom  core.Geometry
		chain func(h int, q float64) (*markov.Chain, markov.Endpoints, error)
	}{
		{"chord", core.XOR{}, markov.XORChain},
		{"kademlia", core.XOR{}, markov.XORChain},
	}

	tables := make([]*table.Table, 0, len(protocols))
	for _, p := range protocols {
		// dists[qi] = {analytic, event, live} hop pmfs for qs[qi].
		dists := make([][3][]float64, len(qs))
		for qi, q := range qs {
			analytic, err := analyticHopDist(p.geom, p.chain, bits, q)
			if err != nil {
				return nil, err
			}

			cfg := eventsim.Config{
				Protocol: p.name,
				Overlay:  eventsim.OverlayConfig{Bits: bits, Seed: opt.Seed},
				Scenario: "massfail",
				Params:   eventsim.Params{FailFraction: q, FailTime: 1, Rate: 200},
				Duration: 4,
				Seed:     opt.Seed,
				// Lossless transport on both sides: same-candidate
				// retransmission never helps.
				Retransmits: -1,
			}
			res, err := eventsim.Run(cfg)
			if err != nil {
				return nil, err
			}
			simHist := res.WindowHopDist(2, cfg.Duration)

			sched, err := eventsim.BuildSchedule(cfg)
			if err != nil {
				return nil, err
			}
			// The cluster runs on virtual time ("sim"): no timeout fires
			// spuriously, however loaded the host, and a genuine
			// dead-candidate failover costs no wall clock. Any RTO above
			// the simulated round trip gives the same hops, so the value
			// is the one the figure has always run with.
			c, err := cluster.New(cluster.Config{
				Protocol:    cfg.Protocol,
				Bits:        cfg.Overlay.Bits,
				Seed:        cfg.Overlay.Seed,
				Transport:   "sim",
				RTO:         75 * time.Millisecond,
				Retransmits: -1,
				Deadline:    10 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			report, err := c.Replay(sched)
			c.Close()
			if err != nil {
				return nil, err
			}
			liveHist := report.WindowHopDist(2, cfg.Duration)
			if simHist.Count() == 0 || liveHist.Count() == 0 {
				return nil, fmt.Errorf("figures: hopdist %s q=%v: empty steady-state window", p.name, q)
			}

			dists[qi] = [3][]float64{analytic, histPMF(simHist), histPMF(liveHist)}
		}

		cols := []string{"hops"}
		maxK := 0
		for qi, q := range qs {
			for src, label := range []string{"analytic", "event", "live"} {
				cols = append(cols, fmt.Sprintf("%s q=%v %%", label, q))
				if n := len(dists[qi][src]); n-1 > maxK {
					maxK = n - 1
				}
			}
		}
		t := table.New(fmt.Sprintf("E19 — %s hop-count distribution: Markov mixture vs eventsim vs live cluster (N=2^%d)",
			p.name, bits), cols...)
		for k := 0; k <= maxK; k++ {
			row := []string{table.I(k)}
			for qi := range qs {
				for src := 0; src < 3; src++ {
					row = append(row, table.F(100*massAt(dists[qi][src], k), 2))
				}
			}
			t.AddRow(row...)
		}
		meanRow := []string{"mean"}
		for qi := range qs {
			for src := 0; src < 3; src++ {
				meanRow = append(meanRow, table.F(pmfMean(dists[qi][src]), 3))
			}
		}
		t.AddRow(meanRow...)
		tables = append(tables, t)
	}
	return tables, nil
}

// analyticHopDist mixes the chain-level walk-length law over the target
// distance: P(hops = k | success) = Σ_h w(h)·P_h(k) / Σ_h w(h) with
// w(h) = n(h)·p(h,q) — Roos-style: the distributional refinement of
// core.MeanSuccessfulRouteLength.
func analyticHopDist(g core.Geometry, chain func(h int, q float64) (*markov.Chain, markov.Endpoints, error), d int, q float64) ([]float64, error) {
	maxH := g.MaxDistance(d)
	var mix []float64
	var totalW float64
	logp := 0.0
	for h := 1; h <= maxH; h++ {
		logp += math.Log1p(-g.PhaseFailure(d, h, q))
		w := math.Exp(g.LogNodesAt(d, h) + logp)
		if w == 0 {
			continue
		}
		c, ep, err := chain(h, q)
		if err != nil {
			return nil, err
		}
		dist, err := c.StepDistribution(ep.Start, ep.Success)
		if err != nil {
			return nil, err
		}
		if len(dist) > len(mix) {
			grown := make([]float64, len(dist))
			copy(grown, mix)
			mix = grown
		}
		for k, pk := range dist {
			mix[k] += w * pk
		}
		totalW += w
	}
	if totalW == 0 {
		return nil, fmt.Errorf("figures: analytic hop distribution has no surviving mass (d=%d q=%v)", d, q)
	}
	for k := range mix {
		mix[k] /= totalW
	}
	return mix, nil
}

// histPMF converts a hop histogram to a normalized pmf indexed by hop
// count. Hop counts are far below the histogram's exact range (≤ 127),
// so every bucket upper bound is the hop value itself.
func histPMF(h obs.Histogram) []float64 {
	out := make([]float64, h.Max()+1)
	n := float64(h.Count())
	h.Buckets(func(upper int64, count uint64) {
		out[upper] = float64(count) / n
	})
	return out
}

func massAt(pmf []float64, k int) float64 {
	if k >= len(pmf) {
		return 0
	}
	return pmf[k]
}

func pmfMean(pmf []float64) float64 {
	var m float64
	for k, p := range pmf {
		m += float64(k) * p
	}
	return m
}
