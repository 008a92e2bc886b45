// Command benchcmp compares benchmark metrics from the BENCH_*.json
// artifacts scripts/bench.sh emits, and gates CI on them.
//
// Two comparisons in one invocation:
//
//   - Same-run gate (-base/-new): two benchmarks from the *same* artifact
//     — e.g. BenchmarkEventSimScheduler/heap vs .../wheel — are compared
//     on -metric, and the command exits non-zero when the new value falls
//     more than -tolerance below the base, or below an explicit required
//     ratio given with -min-ratio (which may exceed 1: the shard-scaling
//     gate demands Shards/4 beat Shards/1 by a configured factor on
//     parallel hardware). Because both numbers come from one process on
//     one machine, the gate is immune to host-speed variation; this is
//     how CI asserts the timing-wheel scheduler outruns the binary-heap
//     reference by its required factor and that shards buy throughput.
//
//   - Baseline diff (-baseline): every benchmark shared with a committed
//     baseline artifact is tabulated with its relative change —
//     benchstat-style visibility, informational only, since the baseline
//     was recorded on a different machine.
//
// Example (the CI invocation):
//
//	benchcmp -file BENCH_eventsim.json \
//	  -base BenchmarkEventSimScheduler/heap -new BenchmarkEventSimScheduler/wheel \
//	  -metric events_per_s -min-ratio 1.5 \
//	  -baseline bench/BENCH_eventsim.baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// entry mirrors the object shape scripts/bench.sh extracts from `go test
// -bench` output. Metrics a benchmark does not report are null.
type entry struct {
	Name          string   `json:"name"`
	NsPerOp       *float64 `json:"ns_per_op"`
	AllocsPerOp   *float64 `json:"allocs_per_op"`
	EventsPerS    *float64 `json:"events_per_s"`
	AllocsPerEvnt *float64 `json:"allocs_per_event"`
}

func (e entry) metric(name string) (float64, bool) {
	var v *float64
	switch name {
	case "ns_per_op":
		v = e.NsPerOp
	case "allocs_per_op":
		v = e.AllocsPerOp
	case "events_per_s":
		v = e.EventsPerS
	case "allocs_per_event":
		v = e.AllocsPerEvnt
	}
	if v == nil {
		return 0, false
	}
	return *v, true
}

func load(path string) ([]entry, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []entry
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// find returns the entry named prefix, tolerating go test's -GOMAXPROCS
// suffix: the name must either match exactly or continue with '-'.
// A bare prefix match would be order-dependent — "BenchmarkEventSim"
// must not resolve to BenchmarkEventSimShards/1.
func find(entries []entry, prefix string) (entry, bool) {
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name, prefix); ok && (rest == "" || rest[0] == '-') {
			return e, true
		}
	}
	return entry{}, false
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		file      = fs.String("file", "", "benchmark artifact to read (required)")
		base      = fs.String("base", "", "same-run gate: baseline benchmark name prefix")
		newName   = fs.String("new", "", "same-run gate: candidate benchmark name prefix")
		metric    = fs.String("metric", "events_per_s", "metric to compare: ns_per_op|allocs_per_op|events_per_s|allocs_per_event")
		tolerance = fs.Float64("tolerance", 0.05, "allowed relative shortfall of new vs base before failing")
		minRatio  = fs.Float64("min-ratio", 0, "required goodness ratio of new vs base (overrides -tolerance when > 0); values above 1 demand a speedup, e.g. 1.3 gates a 1.3x scaling win")
		baseline  = fs.String("baseline", "", "optional committed baseline artifact for an informational diff")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	if (*base == "") != (*newName == "") {
		return fmt.Errorf("-base and -new must be given together")
	}
	entries, err := load(*file)
	if err != nil {
		return err
	}

	if *baseline != "" {
		baseEntries, err := load(*baseline)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "## %s vs committed baseline %s (informational; different machines differ)\n", *file, *baseline)
		shared := 0
		for _, b := range baseEntries {
			cur, ok := find(entries, b.Name)
			if !ok {
				fmt.Fprintf(out, "  %-50s only in baseline\n", b.Name)
				continue
			}
			shared++
			for _, m := range []string{"ns_per_op", "allocs_per_op", "events_per_s", "allocs_per_event"} {
				bv, bok := b.metric(m)
				cv, cok := cur.metric(m)
				if !bok || !cok || bv == 0 {
					continue
				}
				fmt.Fprintf(out, "  %-50s %-16s %14.4g -> %14.4g  (%+.1f%%)\n",
					b.Name, m, bv, cv, 100*(cv-bv)/bv)
			}
		}
		if shared == 0 {
			fmt.Fprintln(out, "  (no shared benchmarks)")
		}
	}

	if *base != "" {
		b, ok := find(entries, *base)
		if !ok {
			return fmt.Errorf("no benchmark matching %q in %s", *base, *file)
		}
		n, ok := find(entries, *newName)
		if !ok {
			return fmt.Errorf("no benchmark matching %q in %s", *newName, *file)
		}
		bv, ok := b.metric(*metric)
		if !ok {
			return fmt.Errorf("%s reports no %s", b.Name, *metric)
		}
		nv, ok := n.metric(*metric)
		if !ok {
			return fmt.Errorf("%s reports no %s", n.Name, *metric)
		}
		if bv <= 0 {
			return fmt.Errorf("%s %s = %v is not positive", b.Name, *metric, bv)
		}
		// events_per_s is a throughput (higher is better); the other
		// metrics are costs (lower is better). Normalize so "goodness"
		// always reads as ratio >= 1.
		ratio := nv / bv
		if *metric != "events_per_s" {
			if nv <= 0 {
				return fmt.Errorf("%s %s = %v is not positive", n.Name, *metric, nv)
			}
			ratio = bv / nv
		}
		// The pass bar: a plain regression tolerance by default, or an
		// explicit required ratio — which may exceed 1, turning the gate
		// from "no slower than" into "at least this much faster than"
		// (the shard-scaling gate).
		need := 1 - *tolerance
		if *minRatio > 0 {
			need = *minRatio
		}
		fmt.Fprintf(out, "## same-run gate: %s on %s\n", *metric, *file)
		fmt.Fprintf(out, "  base %-48s %14.4g\n", b.Name, bv)
		fmt.Fprintf(out, "  new  %-48s %14.4g\n", n.Name, nv)
		fmt.Fprintf(out, "  goodness ratio = %.3f (required: >= %.3f)\n", ratio, need)
		if ratio < need {
			return fmt.Errorf("%s %s below the gate: %.4g vs base %.4g (ratio %.3f < required %.3f)",
				n.Name, *metric, nv, bv, ratio, need)
		}
	}
	return nil
}
