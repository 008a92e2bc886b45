package exp

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestGoldenJSON locks the JSON encoding and checks it is valid JSON with
// the expected shape.
func TestGoldenJSON(t *testing.T) {
	rows, err := Run(context.Background(), goldenPlan(), goldenOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteJSON(&b, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(decoded) != len(rows) {
		t.Fatalf("decoded %d objects, want %d", len(decoded), len(rows))
	}
	first := decoded[0]
	if first["plan"] != "golden" || first["kind"] != "grid" {
		t.Errorf("first object identity: %v", first)
	}
	if first["q"] != 0.0 || first["analytic_routability"] != 1.0 {
		t.Errorf("first object values: %v", first)
	}
	// Grid rows carry no event fields.
	if first["event_success"] != nil {
		t.Errorf("grid row event_success = %v, want null", first["event_success"])
	}
	last := decoded[len(decoded)-1]
	if last["kind"] != "event" || last["scenario"] != "massfail" || last["time"] != 2.0 {
		t.Errorf("last object should be the final massfail bucket: %v", last)
	}
	checkGolden(t, "golden.json", b.Bytes())
}
