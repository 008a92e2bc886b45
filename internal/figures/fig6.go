package figures

import (
	"context"
	"rcm/exp"
	"rcm/internal/table"
)

func init() {
	register("6a", Fig6a)
	register("6b", Fig6b)
}

// fig6Series computes one protocol's full q-grid — analytic failed-path
// percentage from the RCM model against the simulated percentage from the
// static-resilience harness — as a single experiment plan.
func fig6Series(protocol string, opt Options) (*table.Table, error) {
	spec, err := exp.SpecFor(protocol, exp.Config{})
	if err != nil {
		return nil, err
	}
	rows, err := exp.Run(context.Background(), exp.Plan{
		Name:  "fig6-" + protocol,
		Specs: []exp.Spec{spec},
		Bits:  []int{opt.Bits},
		Qs:    exp.PaperQGrid(),
	},
		exp.WithModes(exp.ModeAnalytic, exp.ModeSim),
		exp.WithPairs(opt.Pairs), exp.WithTrials(opt.Trials),
		exp.WithSeed(opt.Seed),
	)
	if err != nil {
		return nil, err
	}
	t := table.New("", "q %", "analytic failed %", "simulated failed %", "stderr %", "mean hops")
	for _, r := range rows {
		t.AddRow(
			table.Pct(r.Q, 0),
			table.F(r.AnalyticFailedPct, 2),
			table.F(r.SimFailedPct, 2),
			table.F(100*r.SimStdErr, 2),
			table.F(r.SimMeanHops, 2),
		)
	}
	return t, nil
}

// Fig6a reproduces Fig. 6(a): percentage of failed paths vs node failure
// probability at N = 2^Bits for the tree, hypercube and XOR geometries,
// analysis against simulation. The paper overlays Gummadi et al.'s
// simulation data; here the simulation is regenerated from scratch by the
// static-resilience harness (E3 in the experiment index, figures.go).
func Fig6a(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	series := []struct {
		protocol string
		label    string
	}{
		{"plaxton", "Tree (Plaxton)"},
		{"can", "Hypercube (CAN)"},
		{"kademlia", "XOR (Kademlia)"},
	}
	out := make([]*table.Table, 0, len(series))
	for _, s := range series {
		t, err := fig6Series(s.protocol, opt)
		if err != nil {
			return nil, err
		}
		titled := table.New("Fig. 6(a) — "+s.label+" failed paths, analysis vs simulation, N=2^"+table.I(opt.Bits), t.Columns()...)
		for i := 0; i < t.NumRows(); i++ {
			titled.AddRow(t.Row(i)...)
		}
		out = append(out, titled)
	}
	return out, nil
}

// Fig6b reproduces Fig. 6(b): the ring (Chord) geometry, where the analytic
// expression is a lower bound on routability — the analytic failed-path
// column upper-bounds the simulated one, tightly below q ≈ 20%.
func Fig6b(opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	t, err := fig6Series("chord", opt)
	if err != nil {
		return nil, err
	}
	titled := table.New("Fig. 6(b) — Ring (Chord) failed paths, analysis (upper bound) vs simulation, N=2^"+table.I(opt.Bits), t.Columns()...)
	for i := 0; i < t.NumRows(); i++ {
		titled.AddRow(t.Row(i)...)
	}
	return []*table.Table{titled}, nil
}
