// Command figures regenerates the paper's tables and figures (and the
// extension experiments) as ASCII tables or CSV files. See the experiment
// index in internal/figures/figures.go, which maps figure names to paper
// artifacts. The
// grid-shaped experiments construct declarative plans executed by the
// parallel runner in rcm/exp.
//
// Examples:
//
//	figures -fig 6a                  # Fig. 6(a) at the paper's N=2^16
//	figures -fig 7b -format csv      # Fig. 7(b) as CSV on stdout
//	figures -fig churn               # E11: churn × maintenance vs the static model
//	figures -fig all -bits 12        # everything, at reduced size
//	figures -fig all -out results/   # write one file per table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rcm/internal/figures"
	"rcm/internal/markov"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run's error carries the "figures:" prefix once: internal/figures
// already begins its own errors with it, and run adds it to the rest.
func run(args []string, stdout io.Writer) (err error) {
	defer func() {
		if err != nil && !strings.HasPrefix(err.Error(), "figures: ") {
			err = fmt.Errorf("figures: %w", err)
		}
	}()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "all", "figure to regenerate: "+strings.Join(figures.Names(), "|")+"|all")
		format = fs.String("format", "ascii", "output format: ascii|csv")
		bits   = fs.Int("bits", 0, "override identifier length for simulation figures (default: paper's 16)")
		pairs  = fs.Int("pairs", 0, "override sampled pairs per point")
		trials = fs.Int("trials", 0, "override trials per point")
		seed   = fs.Uint64("seed", 0, "override seed")
		outDir = fs.String("out", "", "write one file per table into this directory instead of stdout")
		dotDir = fs.String("dot", "", "also write the Fig. 4/5/8 chain diagrams as Graphviz .dot files into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "ascii" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *dotDir != "" {
		if err := writeChainDots(*dotDir, stdout); err != nil {
			return err
		}
	}

	opt := figures.Options{Bits: *bits, Pairs: *pairs, Trials: *trials, Seed: *seed}
	tables, err := figures.Generate(*fig, opt)
	if err != nil {
		return err
	}
	if *outDir == "" {
		for _, t := range tables {
			if *format == "csv" {
				fmt.Fprintf(stdout, "# %s\n%s\n", t.Title(), t.CSV())
			} else {
				fmt.Fprintln(stdout, t.ASCII())
			}
		}
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		ext := ".txt"
		body := t.ASCII()
		if *format == "csv" {
			ext = ".csv"
			body = t.CSV()
		}
		name := fmt.Sprintf("%s_%02d_%s%s", *fig, i, slug(t.Title()), ext)
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return nil
}

// writeChainDots renders the five routing chains of Fig. 4(a,b), 5(b),
// 8(a,b) at a representative operating point (h=4, q=0.3) as Graphviz dot
// files.
func writeChainDots(dir string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const h, q = 4, 0.3
	chains := []struct {
		file  string
		title string
		build func() (*markov.Chain, markov.Endpoints, error)
	}{
		{"fig4a_tree.dot", "Fig. 4(a) tree chain, h=4 q=0.3",
			func() (*markov.Chain, markov.Endpoints, error) { return markov.TreeChain(h, q) }},
		{"fig4b_hypercube.dot", "Fig. 4(b) hypercube chain, h=4 q=0.3",
			func() (*markov.Chain, markov.Endpoints, error) { return markov.HypercubeChain(h, q) }},
		{"fig5b_xor.dot", "Fig. 5(b) XOR chain, h=4 q=0.3",
			func() (*markov.Chain, markov.Endpoints, error) { return markov.XORChain(h, q) }},
		{"fig8a_ring.dot", "Fig. 8(a) ring chain, h=4 q=0.3",
			func() (*markov.Chain, markov.Endpoints, error) { return markov.RingChain(h, q) }},
		{"fig8b_symphony.dot", "Fig. 8(b) symphony chain, h=4 d=16 q=0.3",
			func() (*markov.Chain, markov.Endpoints, error) { return markov.SymphonyChain(h, 16, q, 1, 1) }},
	}
	for _, spec := range chains {
		c, _, err := spec.build()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, spec.file)
		if err := os.WriteFile(path, []byte(c.DOT(spec.title)), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return nil
}

// slug turns a table title into a safe file-name fragment.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteByte('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}
