package figures

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

// TestFiguresPinned holds every table of `figures -fig all -bits 10
// -pairs 2000 -trials 1` to an FNV-64a digest of its title and CSV body,
// recorded in testdata/figures.golden — one line per table, in the order
// Generate("all") yields them. A change that moves any figure byte, in
// any layer a figure crosses, fails here. Regenerate with `go test
// ./internal/figures -run TestFiguresPinned -update` only for an intended
// change of results.
func TestFiguresPinned(t *testing.T) {
	ts, err := Generate("all", Options{Bits: 10, Pairs: 2000, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i, tb := range ts {
		h := fnv.New64a()
		fmt.Fprintf(h, "# %s\n%s", tb.Title(), tb.CSV())
		fmt.Fprintf(&b, "%02d %016x %s\n", i, h.Sum64(), tb.Title())
	}
	path := filepath.Join("testdata", "figures.golden")
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
		t.Fatalf("missing golden file (run: go test ./internal/figures -run TestFiguresPinned -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("figures drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, b.Bytes(), want)
	}
}
