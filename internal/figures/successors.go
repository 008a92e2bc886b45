package figures

import (
	"rcm/internal/dht"
	"rcm/internal/sim"
	"rcm/internal/table"
)

func init() {
	register("successors", SuccessorAblation)
}

// SuccessorAblation is experiment E13: the paper's §1 escape hatch for
// unscalable or failure-prone deployments — "the designer can always add
// enough sequential neighbors to achieve an acceptable routability". The
// table sweeps Chord's successor-list length s across failure probabilities
// on the concrete overlay; each doubling of s buys a visible routability
// recovery at high q, at a per-node state cost of s extra links.
func SuccessorAblation(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	bits := opt.Bits
	if bits > 12 {
		bits = 12
	}
	qs := []float64{0.3, 0.5, 0.7, 0.85}
	cols := []string{"successors s", "links/node"}
	for _, q := range qs {
		cols = append(cols, "r% at q="+table.F(q, 2))
	}
	t := table.New("E13 — Chord successor-list ablation (N=2^"+table.I(bits)+")", cols...)
	for _, s := range []int{1, 2, 4, 8, 16} {
		p, err := dht.NewChordWithSuccessors(dht.Config{Bits: bits, Seed: opt.Seed}, s)
		if err != nil {
			return nil, err
		}
		row := []string{table.I(s), table.I(len(p.Neighbors(0)))}
		for i, q := range qs {
			res, err := sim.MeasureStaticResilience(p, q, sim.Options{
				Pairs:  opt.Pairs / 2,
				Trials: opt.Trials,
				Seed:   opt.Seed + uint64(i)*31,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, table.Pct(res.Routability, 2))
		}
		t.AddRow(row...)
	}
	return []*table.Table{t}, nil
}
