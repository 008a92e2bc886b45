//go:build fuzz

package fault

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzFaultPlan holds the plan grammar to its round trip: for every
// spelling Parse accepts, the canonical rendering String parses back to
// the same plan, and renders to itself. The plan is the only way to
// configure loss and every other fault, in both executors, so a plan that
// does not survive its own spelling would run something other than what a
// run's output names. Build-tagged like the other fuzz targets; CI smokes
// it through `make fuzz-smoke`.
func FuzzFaultPlan(f *testing.F) {
	for _, s := range []string{
		"corrupt:0.05",
		"partition:2@1-2,dup:0.1",
		"delayspike:3@1-3,reorder:0.2,corrupt:0.05,stall:0.1:0.3",
		"part:4@1e-3-2, spike:1.5@0-1e2",
		"stall:0:1",
		"dup:1,reorder:0,corrupt:0x1p-3",
		"duplicate:0.5,dup:0.5",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = {%s}, but its String %q does not parse: %v", s, fields(p), canon, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = {%s}, but Parse(String) = {%s} (String %q)", s, fields(p), fields(q), canon)
		}
		if again := q.String(); again != canon {
			t.Fatalf("String is not a fixed point: %q -> %q", canon, again)
		}
	})
}

// fields renders every field of p exactly, without going through String.
func fields(p Plan) string {
	s := fmt.Sprintf("dup=%v reorder=%v corrupt=%v", p.Dup, p.Reorder, p.Corrupt)
	if p.Partition != nil {
		s += fmt.Sprintf(" partition=%+v", *p.Partition)
	}
	if p.DelaySpike != nil {
		s += fmt.Sprintf(" delayspike=%+v", *p.DelaySpike)
	}
	if p.Stall != nil {
		s += fmt.Sprintf(" stall=%+v", *p.Stall)
	}
	return s
}
