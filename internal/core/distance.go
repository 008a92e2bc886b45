package core

import (
	"math"

	"rcm/internal/numeric"
)

// MeanDistance returns the expected routing distance (in hops or phases) to
// a uniformly random other node in a failure-free, fully-populated system:
//
//	E[h] = Σ_h h·n(h) / (2^d − 1)
//
// For the binomial geometries (tree, hypercube, xor) this is d/2 · 2^d/(2^d−1)
// ≈ d/2; for the ring family it approaches d − 1. This is the "O(log N)
// hops" quantity of §1 — except for Symphony, whose phases each cost
// ~d/ks actual hops (see markov.ExpectedStepsGivenSuccess), giving its
// O(log² N) total latency.
func MeanDistance(g Geometry, d int) float64 {
	maxH := g.MaxDistance(d)
	// Compute in log space to support very large d: E = exp(logNum - logDen).
	num := make([]float64, 0, maxH)
	den := make([]float64, 0, maxH)
	for h := 1; h <= maxH; h++ {
		ln := g.LogNodesAt(d, h)
		num = append(num, ln+math.Log(float64(h)))
		den = append(den, ln)
	}
	return math.Exp(numeric.LogSumExp(num) - numeric.LogSumExp(den))
}

// MeanSuccessfulRouteLength returns the expected number of phases of a
// successful route to a random surviving target under failure probability
// q, weighting each distance by its survival probability:
//
//	E[h | success] = Σ_h h·n(h)·p(h,q) / Σ_h n(h)·p(h,q)
//
// Under failure this SHRINKS relative to MeanDistance — distant targets are
// disproportionately unreachable, so the surviving routes are short ones
// (survivorship bias; the extra suboptimal hops within phases are accounted
// separately by the Markov chains).
func MeanSuccessfulRouteLength(g Geometry, d int, q float64) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	maxH := g.MaxDistance(d)
	num := make([]float64, 0, maxH)
	den := make([]float64, 0, maxH)
	logp := 0.0
	walkPhases(g, d, q, 1, maxH, func(h int, Q float64) bool {
		logp += math.Log1p(-Q)
		term := g.LogNodesAt(d, h) + logp
		num = append(num, term+math.Log(float64(h)))
		den = append(den, term)
		return true
	})
	logDen := numeric.LogSumExp(den)
	if math.IsInf(logDen, -1) {
		return 0, nil
	}
	return math.Exp(numeric.LogSumExp(num) - logDen), nil
}
