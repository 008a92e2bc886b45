package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"rcm"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestPointAllGeometries(t *testing.T) {
	out := runCapture(t, "-geometry", "all", "-bits", "16", "-q", "0.3")
	for _, want := range []string{"tree", "hypercube", "xor", "ring", "symphony", "scalable", "unscalable"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "N=2^16") {
		t.Errorf("output missing size header:\n%s", out)
	}
}

func TestPointSingleGeometry(t *testing.T) {
	out := runCapture(t, "-geometry", "xor", "-bits", "20", "-q", "0.1")
	if !strings.Contains(out, "Kademlia") {
		t.Errorf("missing system name:\n%s", out)
	}
	if strings.Contains(out, "Plaxton") {
		t.Errorf("unexpected geometry in single-geometry output:\n%s", out)
	}
}

func TestSweepQ(t *testing.T) {
	out := runCapture(t, "-geometry", "tree", "-bits", "12", "-sweep-q")
	lines := strings.Count(out, "\n")
	if lines < 20 { // title + header + sep + 19 rows
		t.Errorf("sweep produced %d lines:\n%s", lines, out)
	}
	if !strings.Contains(out, "90") {
		t.Errorf("sweep missing q=90%% row:\n%s", out)
	}
}

func TestSweepN(t *testing.T) {
	out := runCapture(t, "-geometry", "symphony", "-q", "0.1", "-sweep-n")
	if !strings.Contains(out, "100") { // d=100 row
		t.Errorf("sweep-n missing d=100 row:\n%s", out)
	}
}

func TestSymphonyParams(t *testing.T) {
	out1 := runCapture(t, "-geometry", "symphony", "-bits", "16", "-q", "0.1", "-kn", "1", "-ks", "1")
	out3 := runCapture(t, "-geometry", "symphony", "-bits", "16", "-q", "0.1", "-kn", "1", "-ks", "3")
	if out1 == out3 {
		t.Error("ks parameter had no effect on output")
	}
}

func TestUnknownGeometryError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-geometry", "pastry"}, &sb); err == nil {
		t.Error("unknown geometry accepted")
	}
}

func TestBadSymphonyParamsError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-geometry", "symphony", "-ks", "0"}, &sb); err == nil {
		t.Error("ks=0 accepted")
	}
}

func TestBadFlagError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-no-such-flag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestTreeBaseFlag(t *testing.T) {
	out := runCapture(t, "-geometry", "tree", "-base", "16", "-bits", "4", "-q", "0.1")
	if !strings.Contains(out, "tree-b16") {
		t.Errorf("missing base-16 geometry name:\n%s", out)
	}
	if !strings.Contains(out, "N=16^4") {
		t.Errorf("missing radix header:\n%s", out)
	}
}

func TestTreeBaseFlagRejectsOtherGeometries(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-geometry", "ring", "-base", "16"}, &sb); err == nil {
		t.Error("-base accepted for non-tree geometry")
	}
}

func TestTreeBaseFlagRejectsBadRadix(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-geometry", "tree", "-base", "1"}, &sb); err == nil {
		t.Error("base 1 accepted")
	}
}

// usage returns what `-h` prints: the flag package writes it to os.Stderr,
// read when the usage is printed, so the test swaps the file for a pipe.
func usage(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	text, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestHelpNamesEveryGeometry: -h lists the registry's names, so a
// registrant -geometry accepts cannot be missing from the help (singlehop
// was, while the list was typed by hand).
func TestHelpNamesEveryGeometry(t *testing.T) {
	text := usage(t)
	for _, name := range append(rcm.Geometries(), "all") {
		if !strings.Contains(text, name) {
			t.Errorf("-h does not name geometry %q:\n%s", name, text)
		}
	}
}

// TestIgnoredFlagCombinationsRejected: a flag that is parsed and then
// dropped used to print a table answering a different question — -base
// with a sweep printed one point, two sweeps ran the q sweep, -base with
// -kn dropped -kn.
func TestIgnoredFlagCombinationsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-geometry", "tree", "-base", "4", "-sweep-q"},
		{"-geometry", "tree", "-base", "4", "-sweep-n"},
		{"-sweep-q", "-sweep-n"},
		{"-geometry", "tree", "-base", "4", "-kn", "3"},
		{"-geometry", "tree", "-base", "4", "-ks", "2"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted:\n%s", args, sb.String())
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error is not one line: %q", args, err)
		}
	}
}
