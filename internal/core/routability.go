package core

import (
	"fmt"
	"math"

	"rcm/internal/numeric"
)

// SuccessProb returns p(h,q) = Π_{m=1..h} (1 − Q(m)) (Eq. 5): the
// probability of successfully routing to a target h hops/phases from the
// root under node-failure probability q.
func SuccessProb(g Geometry, d, h int, q float64) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	if h < 1 || h > g.MaxDistance(d) {
		return 0, fmt.Errorf("%w: h=%d not in [1,%d]", ErrBadDistance, h, g.MaxDistance(d))
	}
	logp := 0.0
	walkPhases(g, d, q, 1, h, func(_ int, Q float64) bool {
		logp += math.Log1p(-Q)
		return true
	})
	return numeric.Clamp01(math.Exp(logp)), nil
}

// LogExpectedReach returns ln E[S] where E[S] = Σ_h n(h)·p(h,q) is the
// expected size of a root's reachable component (§4.1 step 4). The value is
// returned in log space because E[S] itself overflows float64 beyond
// d ≈ 1024.
func LogExpectedReach(g Geometry, d int, q float64) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	maxH := g.MaxDistance(d)
	terms := make([]float64, 0, maxH)
	logp := 0.0
	// p(h) = p(h−1)·(1 − Q(h)): the phase products share prefixes, so a
	// single incremental pass covers every h.
	walkPhases(g, d, q, 1, maxH, func(h int, Q float64) bool {
		logp += math.Log1p(-Q)
		terms = append(terms, g.LogNodesAt(d, h)+logp)
		return true
	})
	return numeric.LogSumExp(terms), nil
}

// ExpectedReach returns E[S] in linear space. It overflows to +Inf for very
// large d; use LogExpectedReach in that regime.
func ExpectedReach(g Geometry, d int, q float64) (float64, error) {
	logES, err := LogExpectedReach(g, d, q)
	if err != nil {
		return 0, err
	}
	return math.Exp(logES), nil
}

// Routability returns r(N,q) for N = 2^d per Eq. 1/Eq. 3:
//
//	r = E[S] / ((1−q)·2^d − 1)
//
// i.e. the expected fraction of surviving ordered pairs that remain
// routable. By convention r = 1 at q = 0 and r = 0 once the expected number
// of survivors drops below one (the denominator becomes non-positive).
func Routability(g Geometry, d int, q float64) (float64, error) {
	return routabilityFromLogES(d, q, math.Ln2, func() (float64, error) {
		return LogExpectedReach(g, d, q)
	})
}

// routabilityFromLogES evaluates Eq. 3 for N = b^d given ln b and a source
// of ln E[S] — the single implementation behind the direct path, the
// memoized Evaluator and the base-b tree, so their edge-case handling
// cannot drift apart.
func routabilityFromLogES(d int, q, logBase float64, logReach func() (float64, error)) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	if q == 0 {
		return 1, nil
	}
	if q == 1 {
		return 0, nil
	}
	logSurvivors := float64(d)*logBase + math.Log(1-q)
	if logSurvivors <= 0 {
		return 0, nil
	}
	logDen := numeric.LogExpm1(logSurvivors)
	logES, err := logReach()
	if err != nil {
		return 0, err
	}
	if math.IsInf(logES, -1) {
		return 0, nil
	}
	return numeric.Clamp01(math.Exp(logES - logDen)), nil
}

// FailedPathPercent returns 100·(1 − r(N,q)): the percentage of failed
// paths, the y-axis of Fig. 6 and Fig. 7(a).
func FailedPathPercent(g Geometry, d int, q float64) (float64, error) {
	r, err := Routability(g, d, q)
	if err != nil {
		return 0, err
	}
	return 100 * (1 - r), nil
}

// DistanceDistribution returns n(h) for h = 1..MaxDistance(d) in linear
// space. Intended for small d (worked examples, tests, figures); overflows
// to +Inf for d beyond ~1000. Values below 2^52 are rounded to the nearest
// integer, since every n(h) is an exact count.
func DistanceDistribution(g Geometry, d int) []float64 {
	maxH := g.MaxDistance(d)
	out := make([]float64, maxH)
	for h := 1; h <= maxH; h++ {
		v := math.Exp(g.LogNodesAt(d, h))
		if v < 1<<52 {
			v = math.Round(v)
		}
		out[h-1] = v
	}
	return out
}
