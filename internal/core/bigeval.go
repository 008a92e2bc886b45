package core

import (
	"math"
	"math/big"

	"rcm/internal/numeric"
)

// RoutabilityBig computes Eq. 3 with arbitrary-precision arithmetic — an
// independent oracle used by tests to validate the float64 log-space
// pipeline. Q(m) values remain float64 (they are plain probabilities); the
// oracle exercises the accumulation: the phase products, the n(h)-weighted
// sum, and the final division.
//
// n(h) is reconstructed exactly from the geometry family: binomial for the
// prefix-style geometries (tree, hypercube, xor) and 2^{h−1} for the ring
// family (ring, symphony).
func RoutabilityBig(g Geometry, d int, q float64, prec uint) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	if q == 0 {
		return 1, nil
	}
	if q == 1 {
		return 0, nil
	}
	e := numeric.NewBigEval(prec)
	maxH := g.MaxDistance(d)
	es := new(big.Float).SetPrec(prec)
	prod := new(big.Float).SetPrec(prec).SetInt64(1)
	walkPhases(g, d, q, 1, maxH, func(h int, Q float64) bool {
		prod = e.Mul(prod, e.OneMinus(new(big.Float).SetPrec(prec).SetFloat64(Q)))
		es = e.Add(es, e.Mul(bigNodesAt(e, g, d, h), prod))
		return true
	})
	den := e.Mul(e.Pow2(d), new(big.Float).SetPrec(prec).SetFloat64(1-q))
	den = e.Add(den, new(big.Float).SetPrec(prec).SetInt64(-1))
	if den.Sign() <= 0 {
		return 0, nil
	}
	r := e.Float64(e.Quo(es, den))
	if math.IsNaN(r) {
		return 0, nil
	}
	return numeric.Clamp01(r), nil
}

// bigNodesAt returns n(h) exactly as a big float by geometry family.
func bigNodesAt(e *numeric.BigEval, g Geometry, d, h int) *big.Float {
	switch g.Name() {
	case "ring", "symphony":
		return e.Pow2(h - 1)
	default:
		return e.Binomial(d, h)
	}
}
