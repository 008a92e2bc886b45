package core_test

import (
	"math"
	"testing"

	"rcm/exp"
	"rcm/internal/core"
)

// fallbackGeometry is XOR under a type walkPhases does not know, so its
// phases take the fallback path through PhaseFailure.
type fallbackGeometry struct{ core.XOR }

// TestPhaseWalkMatchesPhaseFailure holds every Q(m) the shared walk yields
// to the geometry's own PhaseFailure, bit for bit, over the paper's q grid
// plus the edges of [0, 1], at sizes up to past the grid's largest d.
func TestPhaseWalkMatchesPhaseFailure(t *testing.T) {
	geoms := append(core.AllGeometries(), fallbackGeometry{})
	qs := append(exp.PaperQGrid(), 0, 1e-300, 0.5, 1-0x1p-53, 1)
	for _, g := range geoms {
		for _, d := range []int{1, 2, 64, 200, 1024} {
			for _, q := range qs {
				h := g.MaxDistance(d)
				next := 1
				core.WalkPhases(g, d, q, 1, h, func(m int, Q float64) bool {
					if m != next {
						t.Fatalf("%T d=%d q=%v: walk yielded m=%d, want %d", g, d, q, m, next)
					}
					next++
					if want := g.PhaseFailure(d, m, q); math.Float64bits(Q) != math.Float64bits(want) {
						t.Errorf("%T d=%d q=%v m=%d: walk %v != PhaseFailure %v", g, d, q, m, Q, want)
						return false
					}
					return true
				})
				if next != h+1 {
					t.Errorf("%T d=%d q=%v: walk stopped at m=%d, want %d", g, d, q, next-1, h)
				}
			}
		}
	}
}

// TestPhaseWalkStops checks the walk honors a false from yield and starts
// mid-series at the requested phase.
func TestPhaseWalkStops(t *testing.T) {
	for _, g := range append(core.AllGeometries(), fallbackGeometry{}) {
		var seen []int
		core.WalkPhases(g, 64, 0.3, 5, 64, func(m int, _ float64) bool {
			seen = append(seen, m)
			return m < 7
		})
		if len(seen) != 3 || seen[0] != 5 || seen[2] != 7 {
			t.Errorf("%T: walk from 5 stopping at 7 yielded %v", g, seen)
		}
	}
}

// TestXORPhaseFailureAllocs guards the traced single-phase probe: the
// table of powers one XOR.PhaseFailure reads lives on the stack.
func TestXORPhaseFailureAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { core.XOR{}.PhaseFailure(64, 64, 0.3) }); n != 0 {
		t.Errorf("XOR.PhaseFailure(64, 64, 0.3) makes %v heap allocations, want 0", n)
	}
}
