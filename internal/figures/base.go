package figures

import (
	"math"

	"rcm/internal/core"
	"rcm/internal/table"
)

func init() {
	register("base", RadixAblation)
}

// RadixAblation is experiment E15: the paper's §3 footnote that identifier
// bases other than 2 work identically. At equal population N = 2^16, a
// larger radix shortens tree routes (d = log_b N digits) and buys real
// routability at moderate q — but Q(m) = q is radix-independent, so the
// unscalability verdict is immutable: the decay merely starts later.
func RadixAblation(opt Options) ([]*table.Table, error) {
	// Equal-N comparison: b^d = 2^16.
	configs := []struct {
		base, digits int
	}{
		{2, 16},
		{4, 8},
		{16, 4},
		{256, 2},
	}
	t1 := table.New("E15 — tree radix ablation at N=2^16: failed paths % vs q",
		"q %", "base 2 (d=16)", "base 4 (d=8)", "base 16 (d=4)", "base 256 (d=2)")
	for _, q := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7} {
		row := []string{table.Pct(q, 0)}
		for _, cfg := range configs {
			g, err := core.NewGeneralizedTree(cfg.base)
			if err != nil {
				return nil, err
			}
			r, err := g.Routability(cfg.digits, q)
			if err != nil {
				return nil, err
			}
			row = append(row, table.F(100*(1-r), 2))
		}
		t1.AddRow(row...)
	}

	// Scaling at fixed radix: the decay persists at any base.
	t2 := table.New("E15 — base-16 tree routability % vs system size at q=0.1 (still unscalable)",
		"digits d", "N", "routability %", "verdict")
	g16, err := core.NewGeneralizedTree(16)
	if err != nil {
		return nil, err
	}
	for _, d := range []int{2, 4, 8, 16, 25} {
		r, err := g16.Routability(d, 0.1)
		if err != nil {
			return nil, err
		}
		t2.AddRow(
			table.I(d),
			table.E(math.Pow(16, float64(d)), 1),
			table.Pct(r, 2),
			core.Unscalable.String(),
		)
	}
	return []*table.Table{t1, t2}, nil
}
