package obs

// RTT is one peer's smoothed round-trip estimator — the Jacobson/Karn
// machinery of RFC 6298: an exponentially weighted mean (srtt, gain
// 1/8) and mean deviation (rttvar, gain 1/4), combined as
// srtt + 4·rttvar to pick a retransmission timeout that tracks the path
// instead of a static worst case. The zero value has no samples. Both
// executors run this one type, eventsim over float64 seconds and the
// live node over time.Duration, so sim and live agree on the algorithm
// by construction; only the floor they pass to RTO differs.
//
// Karn's rule is the caller's: feed Observe only round trips of
// requests that were sent exactly once.
type RTT[T ~int64 | ~float64] struct {
	srtt, rttvar T
	seeded       bool
}

// Observe feeds one round-trip sample into the estimator.
func (e *RTT[T]) Observe(r T) {
	if !e.seeded {
		*e = RTT[T]{srtt: r, rttvar: r / 2, seeded: true}
		return
	}
	// RFC 6298 §2.3: update rttvar before srtt — the deviation is
	// measured against the previous smoothed mean.
	d := e.srtt - r
	if d < 0 {
		d = -d
	}
	e.rttvar += (d - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// RTO returns the retransmission timeout for attempt try (0 for the
// first transmission): base while there is no sample, otherwise
// srtt + 4·rttvar floored at floor; doubled per retry (exponential
// backoff) and capped at 8×base.
func (e RTT[T]) RTO(base, floor T, try int) T {
	rto := base
	if e.seeded {
		rto = max(e.srtt+4*e.rttvar, floor)
	}
	ceil := 8 * base
	for i := 0; i < try && rto < ceil; i++ {
		rto *= 2
	}
	return min(rto, ceil)
}
