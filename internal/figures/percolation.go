package figures

import (
	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/percolation"
	"rcm/internal/sim"
	"rcm/internal/table"
	"rcm/overlay"
)

func init() {
	register("percolation", Percolation)
}

// Percolation is experiment E10: the paper's §1 argument that connectivity
// is necessary but not sufficient for routing. For each geometry the table
// shows, across q, the survivors' giant-component fraction (the percolation
// ceiling) against the simulated routability — routability must sit below
// the ceiling, and the gap is the part percolation theory cannot see (the
// reason RCM exists). A second table samples reachable-vs-connected
// component sizes directly.
func Percolation(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	bits := opt.Bits
	if bits > 12 {
		bits = 12 // component analysis touches every node; keep it snappy
	}
	qs := []float64{0.1, 0.3, 0.5, 0.7}

	t1 := table.New("§1 — connectivity ceiling vs realized routability (N=2^"+table.I(bits)+")",
		"protocol", "q", "giant component %", "simulated routability %", "gap %")
	t2 := table.New("§4.1 — mean reachable vs connected component of surviving roots (q=0.3)",
		"protocol", "mean reachable", "mean connected", "reachable/connected %")
	// One unit per protocol: its overlay, scan, simulations and roots
	// draw only from seeds of their own.
	type rows struct {
		scan  [][]string // t1, one per q
		reach []string   // t2
	}
	names := dht.ProtocolNames()
	units, err := fanOut(len(names), func(pi int) (rows, error) {
		name := names[pi]
		p, err := dht.New(name, dht.Config{Bits: bits, Seed: opt.Seed})
		if err != nil {
			return rows{}, err
		}
		n := int(p.Space().Size())
		nodes := make([]overlay.ID, n)
		for i := range nodes {
			nodes[i] = overlay.ID(i)
		}
		pts := percolation.ThresholdScan(p, nodes, qs, percolation.ScanOptions{Trials: opt.Trials, Seed: opt.Seed})
		var u rows
		for i, q := range qs {
			res, err := sim.MeasureStaticResilience(p, q, sim.Options{
				Pairs:  opt.Pairs / 2,
				Trials: opt.Trials,
				Seed:   opt.Seed + uint64(i),
			})
			if err != nil {
				return rows{}, err
			}
			giant := pts[i].GiantFraction
			u.scan = append(u.scan, []string{
				name,
				table.F(q, 1),
				table.Pct(giant, 2),
				table.Pct(res.Routability, 2),
				table.Pct(giant-res.Routability, 2),
			})
		}

		alive := overlay.NewBitset(n)
		rng := overlay.NewRNG(opt.Seed ^ 0xE10)
		alive.FillRandomAlive(0.3, rng)
		reach, conn := percolation.ReachableVsConnected(p, nodes, alive, 25, rng)
		ratio := 0.0
		if conn > 0 {
			ratio = reach / conn
		}
		u.reach = []string{name, table.F(reach, 1), table.F(conn, 1), table.Pct(ratio, 1)}
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		for _, row := range u.scan {
			t1.AddRow(row...)
		}
		t2.AddRow(u.reach...)
	}
	// Context row: analytic routability of the matching geometries.
	t3 := table.New("§1 — analytic RCM routability at the same operating points (N=2^"+table.I(bits)+")",
		"geometry", "q=0.1", "q=0.3", "q=0.5", "q=0.7")
	for _, g := range core.AllGeometries() {
		row := []string{g.Name()}
		for _, q := range qs {
			r, err := core.Routability(g, bits, q)
			if err != nil {
				return nil, err
			}
			row = append(row, table.Pct(r, 2))
		}
		t3.AddRow(row...)
	}
	return []*table.Table{t1, t2, t3}, nil
}
