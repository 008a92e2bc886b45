package eventsim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"rcm/fault"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedCase is one row of TestResultsPinned's matrix.
type pinnedCase struct {
	name string
	cfg  Config
}

// network is a run's transport and fault plan, parsed from their
// spellings. Its label names it in test and golden-file rows: the
// transport spelling alone, or fault:<plan>/<transport> under a plan.
type network struct {
	label     string
	transport Transport
	plan      fault.Plan
}

func parseNetwork(tb testing.TB, plan, transport string) network {
	tb.Helper()
	tr, err := ParseTransport(transport)
	if err != nil {
		tb.Fatal(err)
	}
	n := network{label: transport, transport: tr}
	if plan != "" {
		if n.plan, err = fault.Parse(plan); err != nil {
			tb.Fatal(err)
		}
		n.label = "fault:" + plan + "/" + transport
	}
	return n
}

// pinnedCases is the matrix TestResultsPinned holds to fixed digests:
// both routing-table protocols, over the two transports alone and under
// three fault plans, at one, three and four shards under massfail;
// replicated churn with maintenance under loss; and one traced run under
// loss, so WriteTraces' text is part of what is pinned.
func pinnedCases(tb testing.TB) []pinnedCase {
	tb.Helper()
	networks := []network{
		parseNetwork(tb, "", "constant"),
		parseNetwork(tb, "", "empirical"),
		parseNetwork(tb, "corrupt:0.1", "empirical"),
		parseNetwork(tb, "partition:2@1-2,dup:0.1", "empirical"),
		parseNetwork(tb, "delayspike:3@1-3,reorder:0.2,corrupt:0.05,stall:0.1:0.3", "empirical"),
	}
	lossy := parseNetwork(tb, "corrupt:0.05", "empirical")
	traced := parseNetwork(tb, "corrupt:0.1", "empirical")
	var cases []pinnedCase
	for _, proto := range []string{"chord", "kademlia"} {
		for _, nw := range networks {
			for _, shards := range []int{1, 3, 4} {
				cases = append(cases, pinnedCase{
					name: fmt.Sprintf("%s/massfail/%s/shards=%d", proto, nw.label, shards),
					cfg: Config{
						Protocol:  proto,
						Overlay:   OverlayConfig{Bits: 8},
						Scenario:  "massfail",
						Params:    Params{FailFraction: 0.3, FailTime: 1, Rate: 400},
						Transport: nw.transport,
						Fault:     nw.plan,
						Shards:    shards,
						Duration:  3,
						Buckets:   3,
						Seed:      7,
					},
				})
			}
		}
		for _, shards := range []int{1, 3} {
			cases = append(cases, pinnedCase{
				name: fmt.Sprintf("%s/churn/replicas=3/%s/shards=%d", proto, lossy.label, shards),
				cfg: Config{
					Protocol:  proto,
					Overlay:   OverlayConfig{Bits: 8},
					Scenario:  "churn",
					Params:    Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 400, Replicas: 3},
					Transport: lossy.transport,
					Fault:     lossy.plan,
					Shards:    shards,
					Duration:  3,
					Buckets:   3,
					Seed:      11,
					Maintain:  true,
				},
			})
		}
	}
	cases = append(cases, pinnedCase{
		name: fmt.Sprintf("chord/massfail/%s/shards=3/trace=5", traced.label),
		cfg: Config{
			Protocol:  "chord",
			Overlay:   OverlayConfig{Bits: 7},
			Scenario:  "massfail",
			Params:    Params{FailFraction: 0.3, FailTime: 1, Rate: 200},
			Transport: traced.transport,
			Fault:     traced.plan,
			Shards:    3,
			Duration:  2,
			Buckets:   2,
			Seed:      3,
			Trace:     5,
		},
	})
	return cases
}

// resultDigest is one FNV-64a digest over everything a run reports:
// event and lookup totals, every bucket, both histogram series, the
// fault tallies and the rendered traces.
func resultDigest(tb testing.TB, r *Result) uint64 {
	tb.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d lookups=%d faults=%+v\n", r.Events, r.Lookups, r.Faults)
	for i := range r.Buckets {
		hops, err := r.HopDist[i].MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		lat, err := r.LatDist[i].MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(h, "%+v\n%s\n%s\n", r.Buckets[i], hops, lat)
	}
	if err := WriteTraces(h, r); err != nil {
		tb.Fatal(err)
	}
	return h.Sum64()
}

// TestResultsPinned holds the engine's outputs to fixed values. The
// determinism and scheduler-differential suites compare one run against
// another; this one compares every run of the matrix against digests
// recorded once, so a change to the engine that moves any output — event
// totals included — fails here even when it moves both sides of those
// comparisons alike. Regenerate with `go test ./eventsim -run
// TestResultsPinned -update` only for an intended change of results.
func TestResultsPinned(t *testing.T) {
	var b bytes.Buffer
	for _, c := range pinnedCases(t) {
		fmt.Fprintf(&b, "%s %016x\n", c.name, resultDigest(t, mustRun(t, c.cfg)))
	}
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./eventsim -run TestResultsPinned -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("results drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, b.Bytes(), want)
	}
}
