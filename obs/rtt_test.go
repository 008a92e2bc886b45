package obs

import (
	"testing"
	"time"
)

// rttProbe runs one sample sequence, given in milliseconds, through an
// RTT[T] whose millisecond is ms, and reports the state after it and the
// timeout RTO(base, floor, try) returns, in milliseconds again — so the
// float64 and time.Duration instantiations can be held to one table.
func rttProbe[T ~int64 | ~float64](ms T, samples []float64, base, floor float64, try int) [3]float64 {
	var e RTT[T]
	for _, s := range samples {
		e.Observe(T(s) * ms)
	}
	rto := e.RTO(T(base)*ms, T(floor)*ms, try)
	return [3]float64{float64(e.srtt / ms), float64(e.rttvar / ms), float64(rto / ms)}
}

// TestRTT pins the RFC 6298 arithmetic once for both executors: the
// engine's float64 seconds and the node's time.Duration run the same
// sequences to the same numbers. The table is in whole milliseconds,
// multiples of 64 where a gain divides them, so every step is exact in
// the integer representation.
func TestRTT(t *testing.T) {
	cases := []struct {
		name              string
		samples           []float64
		base, floor       float64
		try               int
		srtt, rttvar, rto float64
	}{
		{"no sample: base", nil, 200, 25, 0, 0, 0, 200},
		{"no sample: base doubles per retry", nil, 200, 25, 2, 0, 0, 800},
		{"first sample: srtt=r, rttvar=r/2", []float64{64}, 100, 1, 0, 64, 32, 192},
		// rttvar moves toward |srtt-r| = 64 measured against the *old*
		// srtt: 32 + (64-32)/4 = 40. Updating srtt first would give
		// |72-128| = 56 → 38.
		{"rttvar before srtt", []float64{64, 128}, 100, 1, 0, 72, 40, 232},
		{"floor lifts a fast peer", []float64{64}, 1600, 200, 0, 64, 32, 200},
		{"engine floor is base", []float64{64}, 500, 500, 0, 64, 32, 500},
		{"estimate above base is kept", []float64{640}, 500, 500, 0, 640, 320, 1920},
		{"doubles per retry", []float64{64}, 400, 50, 2, 64, 32, 768},
		{"capped at 8x base", []float64{64}, 100, 12, 5, 64, 32, 800},
		{"capped at 8x base without retries", []float64{640}, 100, 12, 0, 640, 320, 800},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := [3]float64{c.srtt, c.rttvar, c.rto}
			sec := rttProbe(1e-3, c.samples, c.base, c.floor, c.try)
			dur := rttProbe(time.Millisecond, c.samples, c.base, c.floor, c.try)
			if dur != want {
				t.Errorf("time.Duration: srtt, rttvar, rto = %v ms, want %v", dur, want)
			}
			for i := range want {
				// float64 seconds round; the Duration run above is exact.
				if d := sec[i] - want[i]; d > 1e-9 || d < -1e-9 {
					t.Errorf("float64: srtt, rttvar, rto = %v ms, want %v", sec, want)
					break
				}
			}
		})
	}
}
