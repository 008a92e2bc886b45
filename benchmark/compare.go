package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounters are per-layer counts that a given seed fixes exactly;
// between two sets of one commit, or across a pure speed-up, they must
// not move at all.
var exactCounters = []string{"eventsim.events", "eventsim.lookup_success", "sim.routable_share"}

func loadSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values collects metric name of the untraced (or traced) runs of a
// workload, in run order.
func (s resultSet) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict holds set b against set a for one end-to-end metric: it is
// "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when a's own run-to-run spread is wider than the bound
// (unless every run of b reads better than every run of a), else "ok".
func verdict(m endToEndDecl, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma // share by which b is worse
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if quartileSpread(a) > m.Bound && !allBetter(m.Better, a, b) {
		return "unresolved", worse
	}
	if worse > m.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

func allBetter(better string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareSets prints one line per (workload, end-to-end metric) and per
// exact counter or output digest that differs between runs of one seed.
// It reports whether nothing regressed and nothing exact moved.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloadDecls {
		for _, m := range endToEndDecls {
			va, vb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			v, worse := verdict(m, va, vb)
			if v == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-12s %-10s %.6g -> %.6g %s  worse by %+.1f%% (bound %.0f%%, spread %.1f%%, %d/%d runs)\n",
				wl.Name, m.Name, v, median(va), median(vb), m.Unit, 100*worse, 100*m.Bound, 100*quartileSpread(va), len(va), len(vb))
		}
	}
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			if !ra.Correct || !rb.Correct {
				ok = false
				fmt.Fprintf(w, "%-16s seed %d: an output check failed\n", ra.Workload, ra.Seed)
			}
			if ra.Digest != rb.Digest {
				ok = false
				fmt.Fprintf(w, "%-16s seed %d: output digest %s != %s\n", ra.Workload, ra.Seed, ra.Digest, rb.Digest)
			}
			for _, name := range exactCounters {
				if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
					ok = false
					fmt.Fprintf(w, "%-16s seed %d: exact counter %s moved: %v != %v\n", ra.Workload, ra.Seed, name, x, y)
				}
			}
		}
	}
	return ok, nil
}
