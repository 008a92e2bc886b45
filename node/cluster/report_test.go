package cluster

import (
	"math"
	"testing"
	"time"
)

// reportFixture builds a hand-made report: two completed lookups at
// t = 1 and t = 2, one failed at t = 2.5, one skipped at t = 3.
func reportFixture() *Report {
	return &Report{
		Outcomes: []Outcome{
			{T: 1, OK: true, Hops: 2, Latency: 100 * time.Microsecond},
			{T: 2, OK: true, Hops: 4, Latency: 300 * time.Microsecond},
			{T: 2.5, OK: false, Latency: 900 * time.Microsecond},
			{T: 3, Skipped: true},
		},
	}
}

// TestWindowAccessorsEdgeCases: empty windows, windows outside the run,
// windows with zero completed lookups and the empty report yield empty
// hop distributions (never a panic, never a bogus observation).
func TestWindowAccessorsEdgeCases(t *testing.T) {
	r := reportFixture()
	for _, w := range [][2]float64{{3.5, 3.9}, {10, 20}, {-5, -1}, {2, 1}, {2.4, 2.6}, {2.9, 3.1}} {
		if hd := r.WindowHopDist(w[0], w[1]); hd.Count() != 0 {
			t.Errorf("WindowHopDist%v n = %d, want empty", w, hd.Count())
		}
	}
	empty := &Report{}
	emptyDist := empty.WindowHopDist(0, 4)
	if got := emptyDist.Mean(); !math.IsNaN(got) {
		t.Errorf("empty report hop-dist mean = %v, want NaN", got)
	}
}

// TestWindowAccessorsFullRun: over the whole run the hop distribution
// agrees with hand counts — the two completed lookups, hops {2, 4} — and
// window boundaries are inclusive on both ends.
func TestWindowAccessorsFullRun(t *testing.T) {
	r := reportFixture()
	hd := r.WindowHopDist(0, 4)
	if hd.Count() != 2 || hd.Sum() != 6 || hd.Min() != 2 || hd.Max() != 4 {
		t.Errorf("WindowHopDist n=%d sum=%d min=%d max=%d, want 2/6/2/4",
			hd.Count(), hd.Sum(), hd.Min(), hd.Max())
	}
	if hd := r.WindowHopDist(1, 2); hd.Count() != 2 {
		t.Errorf("inclusive-boundary WindowHopDist n = %d, want 2", hd.Count())
	}
}
