package figures

import (
	"fmt"

	"rcm/internal/core"
	"rcm/internal/table"
)

func init() {
	register("scalability", Scalability)
}

// Scalability reproduces the paper's §5 classification. For each geometry
// it shows the Knopp-test evidence — partial sums of Σ Q(m) at doubling
// horizons, and the asymptotic per-route success limit p(∞,q) — alongside
// the numeric classifier's verdict and the paper's hand-derived verdict.
func Scalability(opt Options) ([]*table.Table, error) {
	const q = 0.3
	checkpoints := []int{64, 256, 1024, 4096}

	t1 := table.New("§5 — partial sums of Σ Q(m) at q=0.3 (Knopp's theorem: product > 0 iff sum converges)",
		"geometry", "S(64)", "S(256)", "S(1024)", "S(4096)", "p(∞,q)")
	t2 := table.New("§5 — scalability verdicts",
		"geometry", "system", "numeric verdict", "paper verdict", "reason")
	for _, g := range core.AllGeometries() {
		sums := make([]float64, len(checkpoints))
		for i, d := range checkpoints {
			var ok bool
			if sums[i], ok = core.PhaseFailureSum(g, d, q); !ok {
				return nil, fmt.Errorf("scalability: %s: Q(m) at d=%d is not a probability", g.Name(), d)
			}
		}
		limit := core.AsymptoticSuccess(g, q, 4096)
		t1.AddRow(
			g.Name(),
			table.F(sums[0], 4),
			table.F(sums[1], 4),
			table.F(sums[2], 4),
			table.F(sums[3], 4),
			table.E(limit, 3),
		)
		numericVerdict := core.Classify(g, q, core.ClassifyOptions{})
		paperVerdict, reason := core.TheoreticalVerdict(g)
		t2.AddRow(g.Name(), g.System(), numericVerdict.String(), paperVerdict.String(), reason)
	}
	return []*table.Table{t1, t2}, nil
}
