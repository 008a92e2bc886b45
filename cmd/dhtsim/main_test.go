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

func TestSinglePoint(t *testing.T) {
	out := runCapture(t, "-protocol", "chord", "-bits", "10", "-q", "0.3",
		"-pairs", "2000", "-trials", "2")
	if !strings.Contains(out, "chord static resilience") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "N=2^10") {
		t.Errorf("missing size:\n%s", out)
	}
	// Exactly one data row (title, header, separator, row).
	if rows := strings.Count(strings.TrimSpace(out), "\n"); rows != 3 {
		t.Errorf("expected 4 lines, got %d:\n%s", rows+1, out)
	}
}

func TestCompareColumnPresent(t *testing.T) {
	out := runCapture(t, "-protocol", "kademlia", "-bits", "10", "-q", "0.2",
		"-pairs", "2000", "-trials", "2", "-mode", "analytic+sim")
	if !strings.Contains(out, "analytic r%") {
		t.Errorf("missing analytic column:\n%s", out)
	}
}

func TestSweepRowCount(t *testing.T) {
	out := runCapture(t, "-protocol", "can", "-bits", "10", "-sweep",
		"-pairs", "1000", "-trials", "1")
	// 19 q points plus 3 header lines.
	if rows := strings.Count(strings.TrimSpace(out), "\n") + 1; rows != 22 {
		t.Errorf("sweep line count = %d, want 22:\n%s", rows, out)
	}
}

func TestSymphonyFlags(t *testing.T) {
	out := runCapture(t, "-protocol", "symphony", "-bits", "10", "-q", "0.1",
		"-pairs", "2000", "-trials", "2", "-ks", "3", "-mode", "analytic+sim")
	if !strings.Contains(out, "symphony") {
		t.Errorf("missing protocol name:\n%s", out)
	}
}

func TestUnknownProtocolError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-protocol", "pastry"}, &sb); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestBadBitsError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-protocol", "chord", "-bits", "0"}, &sb); err == nil {
		t.Error("bits=0 accepted")
	}
}

// A non-positive count would be replaced by a default while the table's
// title still printed what was typed.
func TestNonPositiveCountsRejected(t *testing.T) {
	for _, flag := range []string{"-kn", "-ks", "-pairs", "-trials"} {
		for _, v := range []string{"0", "-2"} {
			var sb strings.Builder
			err := run([]string{"-protocol", "symphony", "-bits", "8", flag, v}, &sb)
			if want := flag + " " + v + " must be >= 1"; err == nil || err.Error() != want {
				t.Errorf("%s %s: err = %v, want %q", flag, v, err, want)
			}
			if sb.Len() != 0 {
				t.Errorf("%s %s: printed a table:\n%s", flag, v, sb.String())
			}
		}
	}
}

func TestMatchingGeometryCoversAll(t *testing.T) {
	for _, name := range []string{"plaxton", "can", "kademlia", "chord", "symphony"} {
		out := runCapture(t, "-protocol", name, "-bits", "8", "-q", "0.1",
			"-pairs", "500", "-trials", "1", "-mode", "analytic+sim")
		if !strings.Contains(out, "analytic") {
			t.Errorf("%s: compare output missing analytic column:\n%s", name, out)
		}
	}
}

// TestModeFlag: -mode is parsed by exp.ParseMode, so "analytic+sim" adds
// the analytic columns and bad spellings are rejected.
func TestModeFlag(t *testing.T) {
	withMode := runCapture(t, "-protocol", "chord", "-bits", "8", "-q", "0.1",
		"-pairs", "500", "-trials", "1", "-mode", "analytic+sim")
	if !strings.Contains(withMode, "analytic") {
		t.Errorf("-mode analytic+sim output missing analytic column:\n%s", withMode)
	}
	var sb strings.Builder
	if err := run([]string{"-mode", "warp"}, &sb); err == nil {
		t.Error("bad -mode accepted")
	}
}

// TestModeFlagRejectsOtherEngines: dhtsim has no event settings, so that
// mode must be rejected at the flag with a pointer to the right CLI, and
// "churn" — the removed Monte-Carlo engine's mode — is an unknown name
// whose error lists the modes that exist.
func TestModeFlagRejectsOtherEngines(t *testing.T) {
	for mode, want := range map[string]string{
		"event":     "use eventsim",
		"sim+event": "use eventsim",
		"analytic":  "must include sim",
		"churn":     `unknown mode flag "churn" (have analytic, event,`,
		"sim+churn": `unknown mode flag "churn" (have analytic, event,`,
	} {
		var sb strings.Builder
		if err := run([]string{"-mode", mode}, &sb); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-mode %s: err = %v, want mention of %q", mode, err, want)
		}
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

// TestHelpNamesEveryProtocol: -h lists the registry's names, so a
// registrant -protocol accepts cannot be missing from the help (singlehop
// was, while the list was typed by hand).
func TestHelpNamesEveryProtocol(t *testing.T) {
	text := usage(t)
	for _, name := range rcm.Protocols() {
		if !strings.Contains(text, name) {
			t.Errorf("-h does not name protocol %q:\n%s", name, text)
		}
	}
}
