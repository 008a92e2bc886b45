package core

import (
	"fmt"
	"math"

	"rcm/internal/numeric"
)

// Symphony is the small-world ring geometry (§3.5, §4.3.4): a ring where
// each node keeps kn near neighbors and ks long-range shortcuts drawn from
// the harmonic (1/distance) distribution. A phase completes only when some
// shortcut happens to land in the desired half-distance range (probability
// ks/d per hop), so the per-phase failure probability does not decay with m
// — the root cause of Symphony's unscalability (§5.5).
type Symphony struct {
	// KN is the number of near (sequential) neighbors per node.
	KN int
	// KS is the number of long-range shortcuts per node.
	KS int
}

var _ Geometry = Symphony{}

// DefaultSymphony returns the configuration used in the paper's Fig. 7
// plots: one near neighbor and one shortcut.
func DefaultSymphony() Symphony { return Symphony{KN: 1, KS: 1} }

// NewSymphony validates and returns a Symphony geometry. kn must be >= 0
// and ks >= 1 (routing phases only ever complete via shortcuts).
func NewSymphony(kn, ks int) (Symphony, error) {
	if kn < 0 {
		return Symphony{}, fmt.Errorf("core: symphony kn=%d must be >= 0", kn)
	}
	if ks < 1 {
		return Symphony{}, fmt.Errorf("core: symphony ks=%d must be >= 1", ks)
	}
	return Symphony{KN: kn, KS: ks}, nil
}

// Name implements Geometry.
func (Symphony) Name() string { return "symphony" }

// System implements Geometry.
func (Symphony) System() string { return "Symphony" }

// MaxDistance implements Geometry: h counts distance-halving phases, up to d.
func (Symphony) MaxDistance(d int) int { return d }

// LogNodesAt implements Geometry: as for the ring, n(h) = 2^{h−1} nodes
// require h halving phases (§4.3.4).
func (Symphony) LogNodesAt(d, h int) float64 {
	if h < 1 || h > d {
		return numeric.NegInf
	}
	return float64(h-1) * math.Ln2
}

// PhaseFailure implements Geometry using Eq. 7:
//
//	Qsym = q^{kn+ks} · Σ_{j=0..J} α^j,  α = 1 − ks/d − q^{kn+ks},  J = ⌈d/(1−q)⌉
//
// The expression is independent of m — a constant per-phase failure
// probability, which by Knopp's theorem forces Π(1−Q) → 0 (§5.5).
func (s Symphony) PhaseFailure(d, _ int, q float64) float64 {
	return s.phaseFailure(d, q)
}

func (s Symphony) phaseFailure(d int, q float64) float64 {
	kn, ks := s.KN, s.KS
	if kn < 0 {
		kn = 0
	}
	if ks < 1 {
		ks = 1
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	y := math.Pow(q, float64(kn+ks))
	x := float64(ks) / float64(d)
	alpha := 1 - x - y
	bigJ := int(math.Ceil(float64(d) / (1 - q)))
	var geom float64
	switch {
	case alpha <= 0:
		// Dense-links regime (x+y >= 1): only the j=0 term survives in
		// expectation; the alternating tail is negligible, sum via PowInt.
		// With q within ~2^-40 of 1, |α| is so near 1 that the terms never
		// vanish and J reaches 2^53: past 2^20 terms sum in closed form.
		geom = 0
		ap := 1.0
		for j := 0; j <= bigJ && math.Abs(ap) > 1e-18; j++ {
			if j == 1<<20 {
				geom = (1 - math.Pow(alpha, float64(bigJ+1))) / (1 - alpha)
				break
			}
			geom += ap
			ap *= alpha
		}
	case alpha >= 1:
		geom = float64(bigJ + 1)
	default:
		geom = (1 - numeric.GuardedPow(alpha, float64(bigJ+1))) / (1 - alpha)
	}
	return numeric.Clamp01(y * geom)
}
