// Command rcmcalc evaluates the RCM analytic model: routability, failed-path
// percentage, expected reachable-component size and scalability verdicts for
// any of the paper's five geometries at arbitrary system size and failure
// probability. Sweeps are declarative experiment plans executed by the
// parallel runner in rcm/exp.
//
// Examples:
//
//	rcmcalc -geometry xor -bits 20 -q 0.1
//	rcmcalc -geometry all -bits 16 -q 0.3
//	rcmcalc -geometry tree -bits 16 -sweep-q
//	rcmcalc -geometry symphony -kn 2 -ks 3 -q 0.1 -sweep-n
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
	"rcm/internal/core"
	"rcm/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcmcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcmcalc", flag.ContinueOnError)
	var (
		geometry = fs.String("geometry", "all", "geometry: "+strings.Join(rcm.Geometries(), "|")+"|all")
		bits     = fs.Int("bits", 16, "identifier length d (N = 2^d)")
		q        = fs.Float64("q", 0.1, "node failure probability")
		kn       = fs.Int("kn", 1, "symphony near neighbors")
		ks       = fs.Int("ks", 1, "symphony shortcuts")
		base     = fs.Int("base", 2, "identifier radix for the tree geometry (§3 footnote)")
		sweepQ   = fs.Bool("sweep-q", false, "sweep q over 0..0.9 instead of a single point")
		sweepN   = fs.Bool("sweep-n", false, "sweep system size at fixed q instead of a single point")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A flag that would be parsed and then ignored is an error, not a
	// table that answers a different question.
	if *sweepQ && *sweepN {
		return fmt.Errorf("-sweep-q and -sweep-n are two different tables: pick one")
	}
	if *base != 2 {
		switch {
		case *geometry != "tree":
			return fmt.Errorf("-base applies only to -geometry tree")
		case *sweepQ || *sweepN:
			return fmt.Errorf("-base %d evaluates a single point: it does not combine with -sweep-q or -sweep-n", *base)
		case *kn != 1 || *ks != 1:
			return fmt.Errorf("-kn and -ks are symphony parameters: they do not combine with -base")
		}
		return renderTreeBase(out, *base, *bits, *q)
	}

	specs, err := selectSpecs(*geometry, *kn, *ks)
	if err != nil {
		return err
	}
	switch {
	case *sweepQ:
		return renderSweepQ(out, specs, *bits)
	case *sweepN:
		return renderSweepN(out, specs, *q)
	default:
		return renderPoint(out, specs, *bits, *q)
	}
}

func selectSpecs(name string, kn, ks int) ([]exp.Spec, error) {
	// The flags default to 1, so zero or negative values are explicit user
	// errors — the registry factory would otherwise read 0 as "default".
	// (A kn=0 analytic model is still expressible via rcm.Symphony.)
	if kn < 1 {
		return nil, fmt.Errorf("-kn %d must be >= 1", kn)
	}
	if ks < 1 {
		return nil, fmt.Errorf("-ks %d must be >= 1", ks)
	}
	cfg := exp.Config{SymphonyNear: kn, SymphonyShortcuts: ks}
	if name == "all" {
		specs := exp.AllSpecs()
		if kn != 1 || ks != 1 {
			sym, err := exp.SpecFor("symphony", cfg)
			if err != nil {
				return nil, err
			}
			specs[len(specs)-1] = sym
		}
		return specs, nil
	}
	s, err := exp.SpecFor(name, cfg)
	if err != nil {
		return nil, err
	}
	return []exp.Spec{s}, nil
}

// analyticRows executes an analytic-only plan over specs × bits × qs and
// returns its rows in plan order (spec-major, then bits, then q).
func analyticRows(name string, specs []exp.Spec, bits []int, qs []float64) ([]exp.Row, error) {
	plan := exp.Plan{
		Name:  name,
		Specs: specs,
		Bits:  bits,
		Qs:    qs,
	}
	return exp.Run(context.Background(), plan, exp.WithModes(exp.ModeAnalytic))
}

// renderTreeBase evaluates the base-b tree (E15): N = base^bits nodes.
func renderTreeBase(out io.Writer, base, digits int, q float64) error {
	g, err := core.NewGeneralizedTree(base)
	if err != nil {
		return err
	}
	r, err := g.Routability(digits, q)
	if err != nil {
		return err
	}
	t := table.New(fmt.Sprintf("RCM base-%d tree at N=%d^%d, q=%.3f", base, base, digits, q),
		"geometry", "routability %", "failed paths %", "verdict")
	t.AddRow(g.Name(), table.Pct(r, 3), table.F(100*(1-r), 3), core.Unscalable.String())
	_, err = fmt.Fprintln(out, t.ASCII())
	return err
}

func renderPoint(out io.Writer, specs []exp.Spec, bits int, q float64) error {
	rows, err := analyticRows("rcmcalc-point", specs, []int{bits}, []float64{q})
	if err != nil {
		return err
	}
	t := table.New(fmt.Sprintf("RCM at N=2^%d, q=%.3f", bits, q),
		"geometry", "system", "routability %", "failed paths %", "E[S]", "verdict")
	for i, row := range rows {
		v, _ := core.TheoreticalVerdict(specs[i].Geometry)
		t.AddRow(row.Geometry, row.System,
			table.Pct(row.AnalyticRoutability, 3),
			table.F(row.AnalyticFailedPct, 3),
			table.E(row.AnalyticReach, 4),
			v.String())
	}
	_, err = fmt.Fprintln(out, t.ASCII())
	return err
}

func renderSweepQ(out io.Writer, specs []exp.Spec, bits int) error {
	qs := exp.PaperQGrid()
	rows, err := analyticRows("rcmcalc-sweep-q", specs, []int{bits}, qs)
	if err != nil {
		return err
	}
	cols := []string{"q %"}
	for _, s := range specs {
		cols = append(cols, s.Geometry.Name()+" r%")
	}
	t := table.New(fmt.Sprintf("routability %% vs q at N=2^%d", bits), cols...)
	for qi, q := range qs {
		row := []string{table.Pct(q, 0)}
		for gi := range specs {
			row = append(row, table.Pct(rows[gi*len(qs)+qi].AnalyticRoutability, 2))
		}
		t.AddRow(row...)
	}
	_, err = fmt.Fprintln(out, t.ASCII())
	return err
}

func renderSweepN(out io.Writer, specs []exp.Spec, q float64) error {
	ds := []int{8, 12, 16, 20, 24, 28, 32, 40, 50, 64, 80, 100}
	rows, err := analyticRows("rcmcalc-sweep-n", specs, ds, []float64{q})
	if err != nil {
		return err
	}
	cols := []string{"log2 N"}
	for _, s := range specs {
		cols = append(cols, s.Geometry.Name()+" r%")
	}
	t := table.New(fmt.Sprintf("routability %% vs system size at q=%.3f", q), cols...)
	for di, d := range ds {
		row := []string{table.I(d)}
		for gi := range specs {
			row = append(row, table.Pct(rows[gi*len(ds)+di].AnalyticRoutability, 2))
		}
		t.AddRow(row...)
	}
	_, err = fmt.Fprintln(out, t.ASCII())
	return err
}
