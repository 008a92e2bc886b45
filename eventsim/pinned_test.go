package eventsim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedCase is one row of TestResultsPinned's matrix.
type pinnedCase struct {
	name string
	cfg  Config
}

// pinnedCases is the matrix TestResultsPinned holds to fixed digests:
// both routing-table protocols, over the three plain transports and two
// fault plans, at one, three and four shards under massfail; replicated
// churn with maintenance; and one traced run, so WriteTraces' text is
// part of what is pinned.
func pinnedCases(tb testing.TB) []pinnedCase {
	tb.Helper()
	transports := []string{
		"constant",
		"empirical",
		"lossy:0.1:empirical",
		"fault:partition:2@1-2,dup:0.1/empirical",
		"fault:delayspike:3@1-3,reorder:0.2,corrupt:0.05,stall:0.1:0.3/empirical",
	}
	var cases []pinnedCase
	for _, proto := range []string{"chord", "kademlia"} {
		for _, spec := range transports {
			tr, err := ParseTransport(spec)
			if err != nil {
				tb.Fatal(err)
			}
			for _, shards := range []int{1, 3, 4} {
				cases = append(cases, pinnedCase{
					name: fmt.Sprintf("%s/massfail/%s/shards=%d", proto, spec, shards),
					cfg: Config{
						Protocol:  proto,
						Overlay:   OverlayConfig{Bits: 8},
						Scenario:  "massfail",
						Params:    Params{FailFraction: 0.3, FailTime: 1, Rate: 400},
						Transport: tr,
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
				name: fmt.Sprintf("%s/churn/replicas=3/lossy:0.05:empirical/shards=%d", proto, shards),
				cfg: Config{
					Protocol:  proto,
					Overlay:   OverlayConfig{Bits: 8},
					Scenario:  "churn",
					Params:    Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 400, Replicas: 3},
					Transport: Lossy{Rate: 0.05, Inner: Empirical{}},
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
		name: "chord/massfail/lossy:0.1:empirical/shards=3/trace=5",
		cfg: Config{
			Protocol:  "chord",
			Overlay:   OverlayConfig{Bits: 7},
			Scenario:  "massfail",
			Params:    Params{FailFraction: 0.3, FailTime: 1, Rate: 200},
			Transport: Lossy{Rate: 0.1, Inner: Empirical{}},
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
