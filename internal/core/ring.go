package core

import (
	"math"

	"rcm/internal/numeric"
)

// Ring is the Chord ring routing geometry (§3.4, §4.3.3), randomized-finger
// variant: finger i sits at clockwise distance [2^{i−1}, 2^i). Greedy
// clockwise routing never loses progress: a suboptimal hop keeps all m
// finger options open (failure probability stays q^m through a phase), and
// up to 2^{m−1} suboptimal hops fit inside a phase.
//
// The paper's chain deliberately ignores the distance covered by suboptimal
// hops (tracking it blows up the state space), so the resulting routability
// is a tight LOWER bound — equivalently, the failed-path percentage is an
// upper bound, visibly conservative above q ≈ 20% (Fig. 6(b)).
type Ring struct{}

var _ Geometry = Ring{}

// Name implements Geometry.
func (Ring) Name() string { return "ring" }

// System implements Geometry.
func (Ring) System() string { return "Chord" }

// MaxDistance implements Geometry.
func (Ring) MaxDistance(d int) int { return d }

// LogNodesAt implements Geometry: n(h) = 2^{h−1}, the identifiers at
// clockwise distance [2^{h−1}, 2^h) that need h phases of halving.
func (Ring) LogNodesAt(d, h int) float64 {
	if h < 1 || h > d {
		return numeric.NegInf
	}
	return float64(h-1) * math.Ln2
}

// PhaseFailure implements Geometry using §4.3.3:
//
//	Qring(m) = q^m · (1 − β^{2^{m−1}}) / (1 − β),  β = q·(1 − q^{m−1})
//
// β^{2^{m−1}} is evaluated with a guarded power so the astronomically large
// exponent underflows cleanly for large m.
func (Ring) PhaseFailure(_, m int, q float64) float64 {
	return ringPhase(m, q, math.Pow(q, float64(m)), math.Pow(q, float64(m-1)))
}

// ringPhase is Qring(m) given qm = q^m and qm1 = q^{m−1}.
func ringPhase(m int, q, qm, qm1 float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	if qm == 0 {
		return 0
	}
	beta := q * (1 - qm1)
	if beta == 0 {
		// m = 1: a single usable finger (the successor); Q = q.
		return numeric.Clamp01(qm)
	}
	k := math.Ldexp(1, m-1) // 2^{m−1}, +Inf for very large m is fine
	betaK := numeric.GuardedPow(beta, k)
	return numeric.Clamp01(qm * (1 - betaK) / (1 - beta))
}
