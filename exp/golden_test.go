package exp

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rcm/eventsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenPlan must be fully machine-independent: analytic math is pure
// float64, the static simulator measures on one goroutine, and the event
// setting pins its transport and shard count (both part of the engine's
// sampling plan) — so the encoded bytes are identical everywhere. One grid
// block and one event setting lock both row kinds and every column group.
func goldenPlan() Plan {
	return Plan{
		Name:  "golden",
		Specs: AllSpecs(),
		Bits:  []int{8},
		Qs:    []float64{0, 0.3, 0.9},
		Events: []eventsim.Config{{
			Scenario:  "massfail",
			Params:    eventsim.Params{FailFraction: 0.3, FailTime: 1, Rate: 200},
			Transport: eventsim.Constant{},
			Shards:    4,
			Duration:  2,
			Buckets:   2,
		}},
	}
}

func goldenOpts() []Option {
	return []Option{
		WithModes(ModeAnalytic, ModeSim, ModeEvent),
		WithPairs(400), WithTrials(2),
		WithSeed(1),
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./exp -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenCSV locks the CSV encoding of a full-mode plan byte-for-byte,
// streamed straight from the runner without buffering.
func TestGoldenCSV(t *testing.T) {
	var b bytes.Buffer
	if err := StreamCSV(&b, Stream(context.Background(), goldenPlan(), goldenOpts()...)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.csv", b.Bytes())
}
