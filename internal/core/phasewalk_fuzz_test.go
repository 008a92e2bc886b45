//go:build fuzz

package core

import (
	"math"
	"testing"
)

// FuzzPhaseWalk holds the walk's table-read Q(1..m) of XOR, Ring and
// Hypercube to each geometry's own PhaseFailure, bit for bit, at a q the
// fuzzer chooses as is (outside [0, 1] and NaN included), d folded into
// [1, MaxDimension] and m into [1, 512]. Build-tagged like the other fuzz
// targets; CI smokes it through `make fuzz-smoke`.
func FuzzPhaseWalk(f *testing.F) {
	f.Add(0.3, uint16(64), uint16(64))
	f.Add(1e-300, uint16(200), uint16(200))
	f.Add(1-0x1p-53, uint16(1), uint16(1))
	f.Add(0.5, uint16(1024), uint16(300))
	f.Add(0.0, uint16(2), uint16(2))
	f.Add(1.0, uint16(8), uint16(8))
	f.Fuzz(func(t *testing.T, q float64, d16, m16 uint16) {
		d := 1 + int(d16)%MaxDimension
		m := 1 + int(m16)%512
		for _, g := range []Geometry{XOR{}, Ring{}, Hypercube{}} {
			walkPhases(g, d, q, 1, m, func(k int, Q float64) bool {
				if want := g.PhaseFailure(d, k, q); math.Float64bits(Q) != math.Float64bits(want) {
					t.Fatalf("%s d=%d q=%v m=%d: walk %v != PhaseFailure %v", g.Name(), d, q, k, Q, want)
				}
				return true
			})
		}
	})
}
