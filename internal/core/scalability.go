package core

import (
	"math"

	"rcm/internal/numeric"
)

// Verdict classifies a geometry's asymptotic behavior per Definition 2:
// scalable iff routability converges to a nonzero value as N → ∞ for
// 0 < q < 1 − pc. Verdicts start at 1 so the zero value is invalid.
type Verdict int

const (
	// Scalable: lim_{N→∞} r(N,q) > 0.
	Scalable Verdict = iota + 1
	// Unscalable: lim_{N→∞} r(N,q) = 0.
	Unscalable
	// Indeterminate: the numeric probe could not classify the geometry.
	Indeterminate
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Scalable:
		return "scalable"
	case Unscalable:
		return "unscalable"
	case Indeterminate:
		return "indeterminate"
	default:
		return "invalid"
	}
}

// TheoreticalVerdict returns the paper's §5 classification for the five
// known geometries, derived by hand from Knopp's theorem, along with the
// one-line reason. Unknown geometries return Indeterminate.
func TheoreticalVerdict(g Geometry) (Verdict, string) {
	switch g.Name() {
	case "tree":
		return Unscalable, "p(h,q) = (1−q)^h → 0 for any q > 0 (§5.1)"
	case "hypercube":
		return Scalable, "Σ q^m is a convergent geometric series (§5.2)"
	case "xor":
		return Scalable, "Qxor(m) involves only q^m and m·q^m terms; Σ converges (§5.3)"
	case "ring":
		return Scalable, "ring p(h,q) dominates the XOR lower bound (§5.4)"
	case "symphony":
		return Unscalable, "Qsym is a positive constant per phase; Σ diverges (§5.5)"
	case "singlehop":
		return Scalable, "one phase with Q(1) = q: Σ Q = q converges trivially; the cost moves to maintenance bandwidth"
	default:
		return Indeterminate, "no closed-form analysis available"
	}
}

// ClassifyOptions configures the numeric scalability probe. The zero value
// probes d ∈ {128, 256, 512, 1024, 2048, 4096} at relative tolerance 1e-6.
type ClassifyOptions struct {
	// Dims are the increasing identifier lengths at which Σ_{m≤d} Q_d(m) is
	// evaluated.
	Dims []int
	// Tol is the relative tolerance for declaring the partial sums converged.
	Tol float64
}

func (o ClassifyOptions) withDefaults() ClassifyOptions {
	if len(o.Dims) == 0 {
		o.Dims = []int{128, 256, 512, 1024, 2048, 4096}
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// Classify numerically probes the scalability condition of §5 (Eq. 8):
// lim_{h→∞} p(h,q) > 0 iff Σ Q(m) converges (Knopp's theorem, Theorem 1).
// It evaluates S(d) = Σ_{m=1..d} Q_d(m) at increasing d and inspects the
// growth of the partial sums. Because Q may depend on d (Symphony), the sum
// is recomputed in full at every probed dimension rather than extended
// incrementally.
func Classify(g Geometry, q float64, opt ClassifyOptions) Verdict {
	if q <= 0 {
		return Scalable // no failures: routability is identically 1
	}
	if q >= 1 {
		return Unscalable
	}
	opt = opt.withDefaults()
	sums := make([]float64, len(opt.Dims))
	for i, d := range opt.Dims {
		var ok bool
		if sums[i], ok = PhaseFailureSum(g, d, q); !ok {
			return Indeterminate
		}
	}
	n := len(sums)
	if n < 3 {
		return Indeterminate
	}
	last, prev, prev2 := sums[n-1], sums[n-2], sums[n-3]
	if last == 0 {
		return Scalable
	}
	if (last-prev)/last < opt.Tol {
		return Scalable
	}
	// Divergence: increments keep pace with the doubling horizons.
	inc1, inc2 := last-prev, prev-prev2
	if inc2 > 0 && inc1 >= inc2 {
		return Unscalable
	}
	return Indeterminate
}

// PhaseFailureSum returns S(d) = Σ_{m=1..d} Q_d(m), the partial sum of the
// §5 Knopp test, by compensated summation. ok is false when some Q_d(m) is
// not a probability, which leaves the test without a verdict.
func PhaseFailureSum(g Geometry, d int, q float64) (sum float64, ok bool) {
	var acc numeric.KahanSum
	ok = true
	walkPhases(g, d, q, 1, d, func(_ int, t float64) bool {
		ok = t >= 0 && t <= 1 && !math.IsNaN(t)
		acc.Add(t)
		return ok
	})
	if !ok {
		return 0, false
	}
	return acc.Sum(), true
}

// AsymptoticSuccess estimates lim_{h→∞} p(h,q) — the left side of the
// scalability condition Eq. 8 — by evaluating the phase product at a large
// horizon (h = d = horizon). For scalable geometries this converges to a
// positive constant; for unscalable ones it underflows toward zero.
func AsymptoticSuccess(g Geometry, q float64, horizon int) float64 {
	if horizon <= 0 {
		horizon = 4096
	}
	logp := 0.0
	walkPhases(g, horizon, q, 1, horizon, func(_ int, Q float64) bool {
		logp += math.Log1p(-Q)
		return !math.IsInf(logp, -1)
	})
	return numeric.Clamp01(math.Exp(logp))
}
