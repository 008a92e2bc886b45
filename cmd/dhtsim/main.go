// Command dhtsim runs the static-resilience experiment on a concrete DHT
// overlay: build routing tables for 2^bits nodes, fail nodes independently
// with probability q, route sampled pairs greedily with static tables and
// no back-tracking, and report the surviving routability. With -mode
// analytic+sim the matching RCM analytic prediction is printed alongside.
// The sweep is a declarative experiment plan executed by the parallel
// runner in rcm/exp.
//
// Examples:
//
//	dhtsim -protocol chord -bits 16 -q 0.3
//	dhtsim -protocol kademlia -bits 14 -sweep -mode analytic+sim
//	dhtsim -protocol symphony -bits 12 -ks 3 -q 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rcm"
	"rcm/exp"
	"rcm/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhtsim", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "chord", "protocol: "+strings.Join(rcm.Protocols(), "|"))
		bits     = fs.Int("bits", 14, "identifier length d (N = 2^d)")
		q        = fs.Float64("q", 0.3, "node failure probability")
		pairs    = fs.Int("pairs", 20000, "sampled pairs per trial")
		trials   = fs.Int("trials", 3, "independent failure patterns")
		seed     = fs.Uint64("seed", 1, "deterministic seed")
		kn       = fs.Int("kn", 1, "symphony near neighbors")
		ks       = fs.Int("ks", 1, "symphony shortcuts")
		sweep    = fs.Bool("sweep", false, "sweep q over 0..0.9 instead of a single point")
		modeFlag = fs.String("mode", "sim", `measurements to run, "+"-joined: sim|analytic+sim`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Zero or negative values would be silently replaced by defaults (the
	// registry factory's, the simulator's) under a title that still prints
	// what was typed, so reject them.
	for _, f := range []struct {
		name string
		v    int
	}{{"kn", *kn}, {"ks", *ks}, {"pairs", *pairs}, {"trials", *trials}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d must be >= 1", f.name, f.v)
		}
	}
	spec, err := exp.SpecFor(*protocol, exp.Config{SymphonyNear: *kn, SymphonyShortcuts: *ks})
	if err != nil {
		return err
	}
	qs := []float64{*q}
	if *sweep {
		qs = exp.PaperQGrid()
	}
	mode, err := exp.ParseMode(*modeFlag)
	if err != nil {
		return err
	}
	// dhtsim builds no event settings and its table is shaped around the
	// static measurement; point users at the dedicated CLI.
	if mode&exp.ModeEvent != 0 {
		return fmt.Errorf("-mode %q: dhtsim runs sim and analytic measurements only (use eventsim for event)", *modeFlag)
	}
	if mode&exp.ModeSim == 0 {
		return fmt.Errorf("-mode %q must include sim (use rcmcalc for analytic-only evaluation)", *modeFlag)
	}
	compareCols := mode&exp.ModeAnalytic != 0
	rows, err := exp.Run(context.Background(), exp.Plan{
		Name:  "dhtsim",
		Specs: []exp.Spec{spec},
		Bits:  []int{*bits},
		Qs:    qs,
	},
		exp.WithModes(mode),
		exp.WithPairs(*pairs), exp.WithTrials(*trials),
		exp.WithSeed(*seed),
	)
	if err != nil {
		return err
	}

	cols := []string{"q %", "routability %", "failed %", "stderr %", "mean hops", "alive %"}
	if compareCols {
		cols = append(cols, "analytic r%", "analytic failed %")
	}
	t := table.New(fmt.Sprintf("%s static resilience, N=2^%d, %d pairs × %d trials",
		spec.Protocol, *bits, *pairs, *trials), cols...)
	for _, r := range rows {
		row := []string{
			table.Pct(r.Q, 0),
			table.Pct(r.SimRoutability, 2),
			table.F(r.SimFailedPct, 2),
			table.F(100*r.SimStdErr, 2),
			table.F(r.SimMeanHops, 2),
			table.Pct(r.SimAlive, 1),
		}
		if compareCols {
			row = append(row, table.Pct(r.AnalyticRoutability, 2), table.F(r.AnalyticFailedPct, 2))
		}
		t.AddRow(row...)
	}
	_, err = fmt.Fprintln(out, t.ASCII())
	return err
}
