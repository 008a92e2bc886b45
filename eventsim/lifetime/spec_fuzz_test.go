//go:build fuzz

package lifetime

import (
	"strings"
	"testing"

	"rcm/spec"
)

// FuzzLifetimeSpec holds the family grammar to its canonical spelling:
// for every spec Parse accepts, Spec parses back, renders to itself and
// names the same family. A run names its lifetime family by Spec, so a
// spelling that did not survive itself would run something other than
// what the output names. trace:<file> specs read files and are skipped.
// Build-tagged like the other fuzz targets; CI smokes it through `make
// fuzz-smoke`.
func FuzzLifetimeSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"exp",
		"Exponential",
		"pareto:1.5",
		"heavytail",
		"pareto:0",
		"weibull:0.5",
		"lognormal:1e-3",
		" LOGNORM : 2 ",
		"pareto:1.0000000000000002",
		"weibull:0.123456789",
		"lognormal:2.718281828459045",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if name, _ := spec.Split(s); strings.ToLower(name) == "trace" {
			return
		}
		fam, err := Parse(s)
		if err != nil {
			return
		}
		canon := Spec(fam)
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, but its Spec %q does not parse: %v", s, fam.Name(), canon, err)
		}
		if got := Spec(again); got != canon {
			t.Fatalf("Spec is not a fixed point: %q -> %q (from %q)", canon, got, s)
		}
		if again.Name() != fam.Name() {
			t.Fatalf("Parse(%q) names %s, but Parse(Spec) = Parse(%q) names %s", s, fam.Name(), canon, again.Name())
		}
	})
}
