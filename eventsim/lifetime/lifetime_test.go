package lifetime

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcm/overlay"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(t *testing.T, d Dist, n int) float64 {
	t.Helper()
	rng := overlay.NewRNG(7)
	sum := 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%s: sample %v not positive finite", d.Name(), v)
		}
		sum += v
	}
	return sum / float64(n)
}

// TestFamiliesHitRequestedMean is the equal-mean-online-time contract:
// every family pinned to the same mean must empirically realize it. The
// Pareto tolerance is wide — at α = 1.5 the variance is infinite and
// sample means converge slowly.
func TestFamiliesHitRequestedMean(t *testing.T) {
	const mean = 2.0
	for _, tc := range []struct {
		fam Family
		tol float64
	}{
		{Exponential{}, 0.05},
		{Pareto{Alpha: 2.5}, 0.15},
		{Weibull{Shape: 0.5}, 0.1},
		{Weibull{Shape: 2}, 0.05},
		{Lognormal{Sigma: 1}, 0.1},
		{Trace{Source: "mem", Durations: []float64{1, 2, 3, 10}}, 0.05},
	} {
		d, err := tc.fam.Dist(mean)
		if err != nil {
			t.Fatalf("%s: %v", tc.fam.Name(), err)
		}
		if d.Mean() != mean {
			t.Errorf("%s: Mean() = %v, want %v", d.Name(), d.Mean(), mean)
		}
		got := sampleMean(t, d, 200000)
		if math.Abs(got-mean)/mean > tc.tol {
			t.Errorf("%s: empirical mean %v, want %v ± %v%%", d.Name(), got, mean, 100*tc.tol)
		}
	}
}

// TestParetoIsHeavyTailed: at equal mean, Pareto α = 1.5 must produce far
// more mass deep in the tail than the exponential — the property the
// heavytail scenario exists to exercise.
func TestParetoIsHeavyTailed(t *testing.T) {
	pd, err := Pareto{Alpha: 1.5}.Dist(1)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := Exponential{}.Dist(1)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 100000
	tail := func(d Dist) int {
		rng := overlay.NewRNG(11)
		n := 0
		for i := 0; i < draws; i++ {
			if d.Sample(rng) > 10 {
				n++
			}
		}
		return n
	}
	p, e := tail(pd), tail(ed)
	// P(X > 10) for exp(1) is ~4.5e-5; for Pareto(1.5, mean 1) it is
	// (1/30)^1.5 ≈ 6e-3 — over two orders of magnitude apart.
	if p < 20*e+20 {
		t.Errorf("pareto tail count %d not clearly heavier than exponential %d", p, e)
	}
}

// TestDistDeterminism: equal seeds must give identical streams.
func TestDistDeterminism(t *testing.T) {
	for _, fam := range []Family{Exponential{}, Pareto{}, Weibull{}, Lognormal{}} {
		d, err := fam.Dist(1)
		if err != nil {
			t.Fatal(err)
		}
		a, b := overlay.NewRNG(3), overlay.NewRNG(3)
		for i := 0; i < 100; i++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%s: diverged at draw %d: %v vs %v", d.Name(), i, x, y)
			}
		}
	}
}

// TestInvalidShapes: the degenerate parameterizations the satellite fix
// targets — Pareto α ≤ 1 (infinite mean), non-positive shapes and means —
// must be descriptive errors, not degenerate schedules.
func TestInvalidShapes(t *testing.T) {
	cases := map[string]func() error{
		"pareto alpha 1":      func() error { return Pareto{Alpha: 1}.Validate() },
		"pareto alpha 0.8":    func() error { return Pareto{Alpha: 0.8}.Validate() },
		"pareto alpha -2":     func() error { return Pareto{Alpha: -2}.Validate() },
		"pareto alpha NaN":    func() error { return Pareto{Alpha: math.NaN()}.Validate() },
		"weibull shape -1":    func() error { return Weibull{Shape: -1}.Validate() },
		"weibull shape Inf":   func() error { return Weibull{Shape: math.Inf(1)}.Validate() },
		"lognormal sigma -1":  func() error { return Lognormal{Sigma: -1}.Validate() },
		"exp mean 0":          func() error { _, err := Exponential{}.Dist(0); return err },
		"exp mean -1":         func() error { _, err := Exponential{}.Dist(-1); return err },
		"exp mean NaN":        func() error { _, err := Exponential{}.Dist(math.NaN()); return err },
		"exp mean Inf":        func() error { _, err := Exponential{}.Dist(math.Inf(1)); return err },
		"pareto mean 0":       func() error { _, err := Pareto{Alpha: 2}.Dist(0); return err },
		"empty trace":         func() error { return Trace{}.Validate() },
		"trace with zero":     func() error { return Trace{Durations: []float64{1, 0}}.Validate() },
		"trace with negative": func() error { _, err := Trace{Durations: []float64{-1}}.Dist(1); return err },
	}
	for name, f := range cases {
		if err := f(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestZeroShapesSelectDefaults: the zero value of each parametric family
// is the documented default, not an error.
func TestZeroShapesSelectDefaults(t *testing.T) {
	if got := (Pareto{}).alpha(); got != DefaultParetoAlpha {
		t.Errorf("zero Pareto alpha = %v, want %v", got, DefaultParetoAlpha)
	}
	if got := (Weibull{}).shape(); got != DefaultWeibullShape {
		t.Errorf("zero Weibull shape = %v, want %v", got, DefaultWeibullShape)
	}
	if got := (Lognormal{}).sigma(); got != float64(DefaultLognormalSigma) {
		t.Errorf("zero Lognormal sigma = %v, want %v", got, DefaultLognormalSigma)
	}
}

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTrace covers the file loader: comments and blanks skipped,
// empirical mean computed, rescaling to the requested mean.
func TestLoadTrace(t *testing.T) {
	path := writeTrace(t, "# session durations\n1.0\n\n2.0\n 3.0 \n")
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Durations) != 3 {
		t.Fatalf("loaded %d durations, want 3", len(tr.Durations))
	}
	if m := tr.EmpiricalMean(); m != 2 {
		t.Errorf("empirical mean %v, want 2", m)
	}
	d, err := tr.Dist(4) // rescale ×2
	if err != nil {
		t.Fatal(err)
	}
	rng := overlay.NewRNG(1)
	for i := 0; i < 100; i++ {
		v := d.Sample(rng)
		if v != 2 && v != 4 && v != 6 {
			t.Fatalf("rescaled sample %v not in {2,4,6}", v)
		}
	}
}

// TestLoadTraceErrors: missing file, junk lines, empty and non-positive
// traces all error descriptively.
func TestLoadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"junk line":    "1.0\nbogus\n",
		"zero value":   "0\n",
		"negative":     "-1\n",
		"inf":          "+Inf\n",
		"only comment": "# nothing\n",
		"empty":        "",
	}
	for name, body := range cases {
		if _, err := LoadTrace(writeTrace(t, body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestParseSpellings locks the CLI spellings for all built-in families.
func TestParseSpellings(t *testing.T) {
	trPath := writeTrace(t, "1\n2\n")
	good := map[string]string{
		"":                "exp",
		"exp":             "exp",
		"  Exponential ":  "exp",
		"pareto":          "pareto(a=1.5)",
		"pareto:2.5":      "pareto(a=2.5)",
		"heavytail":       "pareto(a=1.5)",
		"weibull":         "weibull(k=0.5)",
		"weibull:0.7":     "weibull(k=0.7)",
		"lognormal":       "lognormal(s=1)",
		"lognorm:2":       "lognormal(s=2)",
		"trace:" + trPath: "trace(" + filepath.ToSlash(trPath) + ")",
	}
	for spec, want := range good {
		fam, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if fam.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, fam.Name(), want)
		}
	}
}

// TestParseErrors is the table-driven error-path suite for Parse: every
// rejected spelling must fail with a package-prefixed message naming what
// is wrong, never a degenerate family.
func TestParseErrors(t *testing.T) {
	cases := map[string]struct {
		spec    string
		wantSub string
	}{
		"unknown family":        {"zipfian", "unknown family"},
		"bare colon":            {":1.5", "no family name"},
		"exp with argument":     {"exp:2", "takes no argument"},
		"pareto junk arg":       {"pareto:xyz", "argument"},
		"pareto alpha 1":        {"pareto:1", "infinite mean"},
		"pareto alpha 0.5":      {"pareto:0.5", "infinite mean"},
		"pareto alpha negative": {"pareto:-3", "infinite mean"},
		"weibull junk arg":      {"weibull:k", "argument"},
		"weibull zero shape":    {"weibull:-0.5", "must be positive"},
		"lognormal junk":        {"lognormal:??", "argument"},
		"lognormal negative":    {"lognormal:-1", "must be positive"},
		"trace no path":         {"trace", "file path"},
		"trace missing file":    {"trace:/definitely/not/a/file.txt", "definitely/not/a/file.txt"},
	}
	for name, tc := range cases {
		fam, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("%s: Parse(%q) accepted (-> %v)", name, tc.spec, fam)
			continue
		}
		if !strings.Contains(err.Error(), "lifetime:") {
			t.Errorf("%s: error %q lacks package context", name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

// TestRegisterCollisions covers the registry rules.
func TestRegisterCollisions(t *testing.T) {
	f := func(string) (Family, error) { return Exponential{}, nil }
	if err := Register("pareto", f); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := Register("fresh-name-x", f, "exp"); err == nil {
		t.Error("alias collision accepted")
	}
	if err := Register("", f); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register("self", f, "self"); err == nil {
		t.Error("self-alias accepted")
	}
	if err := Register("nilfam", nil); err == nil {
		t.Error("nil factory accepted")
	}
	names := Names()
	want := []string{"exp", "pareto", "weibull", "lognormal", "trace"}
	for i, w := range want {
		if i >= len(names) || names[i] != w {
			t.Fatalf("Names() = %v, want prefix %v", names, want)
		}
	}
}
