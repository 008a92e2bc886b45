package spec_test

import (
	"fmt"
	"strings"
	"testing"

	"rcm/spec"
)

func newTable(t *testing.T) *spec.Table[string] {
	t.Helper()
	tb := spec.New[string]("pkg", "widget")
	tb.MustRegister("alpha", func(arg string) (string, error) {
		return "alpha(" + arg + ")", nil
	}, "a", "first")
	tb.MustRegister("beta", func(arg string) (string, error) {
		if arg == "" {
			return "", fmt.Errorf("pkg: beta requires an argument")
		}
		return "beta(" + arg + ")", nil
	})
	return tb
}

// TestTableResolution: names and aliases resolve case-insensitively with
// surrounding space ignored, and the argument text after the first colon
// reaches the factory verbatim (including embedded colons).
func TestTableResolution(t *testing.T) {
	tb := newTable(t)
	for spec, want := range map[string]string{
		"alpha":          "alpha()",
		"ALPHA":          "alpha()",
		"  Alpha  ":      "alpha()",
		"a":              "alpha()",
		"first:x":        "alpha(x)",
		"alpha:1,2":      "alpha(1,2)",
		"alpha:0.1:rest": "alpha(0.1:rest)",
		"beta:7":         "beta(7)",
	} {
		got, err := tb.Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %q, want %q", spec, got, want)
		}
	}
}

// TestTableErrors: unknown names list every accepted spelling, empty specs
// are rejected without a default, and ":arg" is called out as a nameless
// argument rather than resolved to anything.
func TestTableErrors(t *testing.T) {
	tb := newTable(t)
	for name, tc := range map[string]struct {
		spec    string
		wantSub string
	}{
		"unknown":          {"gamma", `unknown widget "gamma"`},
		"unknown has list": {"gamma", "a, alpha, beta, first"},
		"empty":            {"", "empty widget spec"},
		"space only":       {"   ", "empty widget spec"},
		"nameless arg":     {":3", "argument but no widget name"},
		"bare colon":       {":", "argument but no widget name"},
		"factory error":    {"beta", "beta requires an argument"},
	} {
		_, err := tb.Parse(tc.spec)
		if err == nil {
			t.Errorf("%s: Parse(%q) accepted", name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

// TestTableDefault: SetDefault makes the empty spec resolve; an
// unregistered default is rejected.
func TestTableDefault(t *testing.T) {
	tb := newTable(t)
	if err := tb.SetDefault("nope"); err == nil {
		t.Error("SetDefault of unregistered name accepted")
	}
	if err := tb.SetDefault("Alpha"); err != nil {
		t.Fatalf("SetDefault: %v", err)
	}
	got, err := tb.Parse("")
	if err != nil || got != "alpha()" {
		t.Errorf("Parse(\"\") with default = %q, %v; want alpha()", got, err)
	}
	// A nameless argument is still an error even with a default: ":x" is a
	// typo, not a request for the default with an argument.
	if _, err := tb.Parse(":x"); err == nil {
		t.Error("Parse(\":x\") accepted with a default set")
	}
}

// TestTableCollisions mirrors the registry rules shared across the module:
// duplicate names, duplicate aliases, self-aliases, empty names and nil
// factories are all registration errors.
func TestTableCollisions(t *testing.T) {
	tb := newTable(t)
	id := func(arg string) (string, error) { return arg, nil }
	for name, tc := range map[string]struct {
		reg     string
		aliases []string
		wantSub string
	}{
		"dup name":       {"alpha", nil, "already registered"},
		"dup via alias":  {"gamma", []string{"A"}, "already registered"},
		"self alias":     {"gamma", []string{"gamma"}, "aliases itself"},
		"empty name":     {"", nil, "empty widget name"},
		"empty alias":    {"gamma", []string{" "}, "empty widget name"},
		"alias collides": {"first", nil, "already registered"},
	} {
		if err := tb.Register(tc.reg, id, tc.aliases...); err == nil {
			t.Errorf("%s: Register(%q, %v) accepted", name, tc.reg, tc.aliases)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
	if err := tb.Register("gamma", nil); err == nil || !strings.Contains(err.Error(), "nil factory") {
		t.Errorf("nil factory error = %v", err)
	}
}

// TestTableListing: Names preserves registration order, Keys sorts every
// accepted spelling, Canonical resolves aliases.
func TestTableListing(t *testing.T) {
	tb := newTable(t)
	if got := tb.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("Names() = %v", got)
	}
	if got := tb.Keys(); strings.Join(got, ",") != "a,alpha,beta,first" {
		t.Errorf("Keys() = %v", got)
	}
	if c, ok := tb.Canonical("FIRST"); !ok || c != "alpha" {
		t.Errorf("Canonical(FIRST) = %q, %v", c, ok)
	}
	if _, ok := tb.Canonical("gamma"); ok {
		t.Error("Canonical(gamma) resolved")
	}
	if _, ok := tb.Lookup("a"); !ok {
		t.Error("Lookup(a) failed")
	}
}

// TestSplit pins the grammar's tokenization, including the pass-through of
// embedded colons to the argument.
func TestSplit(t *testing.T) {
	for s, want := range map[string][2]string{
		"exp":                  {"exp", ""},
		"pareto:1.5":           {"pareto", "1.5"},
		" stall:0.1:0.5 ":      {"stall", "0.1:0.5"},
		"":                     {"", ""},
		"lru:1024":             {"lru", "1024"},
		"trace:/tmp/a b.txt":   {"trace", "/tmp/a b.txt"},
		"  name  :  spaced":    {"name", "  spaced"},
		"name:arg1,arg2,arg3,": {"name", "arg1,arg2,arg3,"},
	} {
		name, arg := spec.Split(s)
		if name != want[0] || arg != want[1] {
			t.Errorf("Split(%q) = (%q, %q), want (%q, %q)", s, name, arg, want[0], want[1])
		}
	}
}

// TestNumericHelpers: Float and Int share empty-selects-default and
// descriptive-error behavior.
func TestNumericHelpers(t *testing.T) {
	if v, ok, err := spec.Float("p", "n", " 1.5 "); v != 1.5 || !ok || err != nil {
		t.Errorf("Float(1.5) = %v, %v, %v", v, ok, err)
	}
	if v, ok, err := spec.Float("p", "n", ""); v != 0 || ok || err != nil {
		t.Errorf("Float(\"\") = %v, %v, %v", v, ok, err)
	}
	if _, _, err := spec.Float("p", "n", "x"); err == nil || !strings.Contains(err.Error(), `p: n argument "x"`) {
		t.Errorf("Float(x) error = %v", err)
	}
	if v, ok, err := spec.Int("p", "n", "42"); v != 42 || !ok || err != nil {
		t.Errorf("Int(42) = %v, %v, %v", v, ok, err)
	}
	if _, _, err := spec.Int("p", "n", "4.2"); err == nil {
		t.Error("Int(4.2) accepted")
	}
}

// TestConcurrentUse: registration and parsing race-safely (run with
// -race); late registrations become visible to Parse.
func TestConcurrentUse(t *testing.T) {
	tb := newTable(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tb.MustRegister(fmt.Sprintf("w%03d", i), func(arg string) (string, error) { return "w", nil })
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := tb.Parse("alpha"); err != nil {
			t.Fatalf("Parse during registration: %v", err)
		}
		tb.Keys()
		tb.Names()
	}
	<-done
	if got, err := tb.Parse("w050"); err != nil || got != "w" {
		t.Errorf("late registration: %q, %v", got, err)
	}
}
