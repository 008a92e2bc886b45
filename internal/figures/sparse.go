package figures

import (
	"math"

	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/sim"
	"rcm/internal/table"
)

func init() {
	register("sparse", SparseSpaces)
}

// SparseSpaces is experiment E14: the paper's §6 future work — DHTs whose
// identifier space is only partially populated, as every deployed system
// is. n nodes are placed at random identifiers in a 2^16 space and the
// overlays resolve table targets to the nearest occupied node, exactly as
// deployed Chord/Kademlia do. The working hypothesis (which the paper's
// closing remark invites) is that the fully-populated analysis carries over
// with the effective dimension d_eff = log2 n; the table tests it against
// simulation.
func SparseSpaces(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	const spaceBits = 16
	const n = 4096 // d_eff = 12
	dEff := int(math.Round(math.Log2(n)))

	// The three overlay builds run side by side, then one unit per q.
	sparse := dht.Config{Bits: spaceBits, Seed: opt.Seed}
	ps, err := fanOut(3, func(i int) (dht.Protocol, error) {
		switch i {
		case 0:
			return dht.NewSparseChord(sparse, n)
		case 1:
			return dht.New("chord", dht.Config{Bits: dEff, Seed: opt.Seed})
		default:
			return dht.NewSparseKademlia(sparse, n)
		}
	})
	if err != nil {
		return nil, err
	}

	t := table.New("E14 — non-fully-populated spaces: n=4096 nodes in a 2^16 space vs d_eff=12 predictions",
		"q", "sparse chord r%", "dense chord r% (d=12)", "ring analytic r% (d=12)", "sparse kademlia r%", "xor analytic r% (d=12)")
	qs := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7}
	rows, err := fanOut(len(qs), func(i int) ([]string, error) {
		q := qs[i]
		simOpt := sim.Options{Pairs: opt.Pairs / 2, Trials: opt.Trials, Seed: opt.Seed + uint64(i)*17}
		var r [3]float64 // sparse chord, dense chord, sparse kademlia
		for j, p := range ps {
			res, err := sim.MeasureStaticResilience(p, q, simOpt)
			if err != nil {
				return nil, err
			}
			r[j] = res.Routability
		}
		aRing, err := core.Routability(core.Ring{}, dEff, q)
		if err != nil {
			return nil, err
		}
		aXOR, err := core.Routability(core.XOR{}, dEff, q)
		if err != nil {
			return nil, err
		}
		return []string{
			table.F(q, 2),
			table.Pct(r[0], 2),
			table.Pct(r[1], 2),
			table.Pct(aRing, 2),
			table.Pct(r[2], 2),
			table.Pct(aXOR, 2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*table.Table{t}, nil
}
