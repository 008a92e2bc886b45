package core

import (
	"fmt"
	"math"

	"rcm/internal/numeric"
)

// GeneralizedTree is the tree (Plaxton) geometry over base-b identifier
// digits — the paper's §3 remark that "we will use binary strings as
// identifiers although any other base besides 2 can be used", made
// concrete. A system of N = b^d nodes uses d base-b digits; a node at
// routing distance h differs from the root in exactly h digit positions,
// of which there are C(d,h)·(b−1)^h. Exactly one neighbor corrects the
// leftmost differing digit, so Q(m) = q regardless of base: changing the
// radix trades path length for table size but cannot rescue the tree's
// unscalability.
type GeneralizedTree struct {
	// Base is the identifier radix b >= 2. Base 2 coincides with Tree.
	Base int
}

var _ Geometry = GeneralizedTree{}

// NewGeneralizedTree validates the radix and returns the geometry.
func NewGeneralizedTree(base int) (GeneralizedTree, error) {
	if base < 2 {
		return GeneralizedTree{}, fmt.Errorf("core: tree base %d must be >= 2", base)
	}
	return GeneralizedTree{Base: base}, nil
}

// Name implements Geometry.
func (g GeneralizedTree) Name() string { return fmt.Sprintf("tree-b%d", g.base()) }

// System implements Geometry.
func (g GeneralizedTree) System() string { return "Plaxton" }

// MaxDistance implements Geometry: up to d digits can differ.
func (g GeneralizedTree) MaxDistance(d int) int { return d }

func (g GeneralizedTree) base() int {
	if g.Base < 2 {
		return 2
	}
	return g.Base
}

// LogNodesAt implements Geometry: n(h) = C(d,h)·(b−1)^h.
func (g GeneralizedTree) LogNodesAt(d, h int) float64 {
	if h < 1 || h > d {
		return numeric.NegInf
	}
	return numeric.LogBinomial(d, h) + float64(h)*math.Log(float64(g.base()-1))
}

// PhaseFailure implements Geometry: one usable neighbor per phase, Q(m) = q.
func (g GeneralizedTree) PhaseFailure(_, _ int, q float64) float64 { return q }

// ClosedFormRoutability evaluates the base-b analogue of §4.3.1:
//
//	E[S] = Σ C(d,h)(b−1)^h (1−q)^h = (1 + (b−1)(1−q))^d − 1
//	r    = E[S] / ((1−q)·b^d − 1)
//
// computed in log space.
func (g GeneralizedTree) ClosedFormRoutability(d int, q float64) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	if q == 0 {
		return 1, nil
	}
	if q == 1 {
		return 0, nil
	}
	b := float64(g.base())
	logNum := numeric.LogExpm1(float64(d) * math.Log(1+(b-1)*(1-q)))
	a := float64(d)*math.Log(b) + math.Log(1-q)
	if a <= 0 {
		return 0, nil
	}
	return numeric.Clamp01(math.Exp(logNum - numeric.LogExpm1(a))), nil
}

// Routability evaluates the generic RCM pipeline for d digits of radix b:
// Eq. 3 as in the package-level Routability, with the survivor denominator
// (1−q)·b^d − 1 in place of the binary 2^d, because n(h) here sums to
// b^d − 1.
func (g GeneralizedTree) Routability(d int, q float64) (float64, error) {
	return routabilityFromLogES(d, q, math.Log(float64(g.base())), func() (float64, error) {
		return LogExpectedReach(g, d, q)
	})
}
