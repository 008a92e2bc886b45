// Command rcmlint statically enforces the framework's cross-cutting
// invariants — the ones the runtime suites can only probe:
//
//	detsource          no wall clocks, global math/rand, env reads or
//	                   order-sensitive map iteration in
//	                   determinism-critical packages
//	loopowner          rcm:loop-owned node state is touched only in
//	                   the node's turns, run by the holder of its
//	                   inbox's runner role
//	registrydiscipline Register* calls complete during package init
//	boundary           imports respect the module's layer contract
//
// Usage:
//
//	rcmlint [-list] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status: 0 clean, 1 findings reported, 2 usage or load failure.
// Suppress a single finding with a justified marker on (or directly
// above) the offending line:
//
//	//lint:allow <analyzer> <reason>
//
// See rcm/internal/lint for the invariant behind each analyzer and its
// link to the bit-identity contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rcm/internal/lint"
)

// analyzers is the rcmlint suite, defined next to the engine so the
// repo-conformance test holds the module to exactly what this binary
// runs.
var analyzers = lint.All

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams/args so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rcmlint [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "rcmlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(wd, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "rcmlint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "rcmlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rcmlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
