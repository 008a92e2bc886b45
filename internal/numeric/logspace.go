// Package numeric provides numerically stable primitives used by the RCM
// analytic core: log-space combinatorics, stable sums and products, and an
// independent math/big oracle used by tests.
//
// All routability computations in this repository run in log space so that
// the framework can be evaluated at the paper's asymptotic operating point
// (N = 2^100, Fig. 7a) and well beyond (d up to several thousand bits)
// without overflow or catastrophic cancellation.
package numeric

import (
	"math"
)

// NegInf is the log-space representation of zero probability.
var NegInf = math.Inf(-1)

// LogBinomial returns log(C(n, k)) computed via log-gamma.
// It returns NegInf when k < 0 or k > n, matching C(n,k) = 0.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return NegInf
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// LogSumExp returns log(sum(exp(xs))) computed stably. Empty input and
// all-NegInf input yield NegInf.
func LogSumExp(xs []float64) float64 {
	maxv := NegInf
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return NegInf
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// GuardedPow returns base^exp where exp may be astronomically large
// (e.g. 2^(m-1) in the ring geometry's Qring). base must be in [0, 1].
// The result underflows cleanly to 0 instead of producing NaN.
func GuardedPow(base, exp float64) float64 {
	switch {
	case base <= 0:
		if exp == 0 {
			return 1
		}
		return 0
	case base >= 1:
		return 1
	case exp <= 0:
		return 1
	}
	// base in (0,1), exp > 0: compute in log space to dodge overflow of exp.
	l := exp * math.Log(base)
	if l < -745 { // below smallest positive subnormal in log space
		return 0
	}
	return math.Exp(l)
}

// Clamp01 clamps x into the closed unit interval. Probabilities computed
// from long products can stray a few ulps outside [0,1].
func Clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// KahanSum accumulates a sum with compensated (Kahan) summation.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates x.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// LogExpm1 returns log(exp(x) - 1) stably for x > 0: the log-space analogue
// of "subtract one", used for denominators of the form (1-q)*2^d - 1.
func LogExpm1(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	if x > 50 {
		// exp(-x) is negligible relative to 1 ulp of the result.
		return x
	}
	return math.Log(math.Expm1(x))
}
