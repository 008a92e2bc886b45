// Package core implements the paper's primary contribution: the reachable
// component method (RCM, §4) for computing the routability of DHT routing
// geometries under uniform random node failure, and the scalability
// classification of §5.
//
// A geometry is described by two ingredients (§4.1, steps 2–3):
//
//	n(h)  — the routing-distance distribution: how many nodes sit at
//	        distance h (hops or phases) from any root node, and
//	Q(m)  — the probability that routing fails during a phase with m
//	        phases remaining, extracted from the geometry's Markov chain.
//
// From these, p(h,q) = Π_{m=1..h}(1−Q(m)) (Eq. 5), the expected reachable
// component E[S] = Σ_h n(h)·p(h,q) (step 4), and the routability
// r = E[S]/((1−q)·2^d − 1) (Eq. 1/Eq. 3) follow mechanically. Everything is
// evaluated in log space so the asymptotic regime of Fig. 7(a) (N = 2^100)
// is computed directly rather than extrapolated.
package core

import (
	"errors"
	"fmt"
	"math"

	"rcm/internal/registry"
)

// Geometry is the RCM description of a DHT routing geometry: the canonical
// interface defined in internal/registry and re-exported publicly as
// rcm.Geometry. Implementations must be immutable value types safe for
// concurrent use. For all five geometries in the paper MaxDistance(d) is d,
// and only Symphony's PhaseFailure depends on d.
type Geometry = registry.Geometry

// Errors returned by the evaluation entry points.
var (
	// ErrBadDimension indicates an identifier length outside [1, MaxDimension].
	ErrBadDimension = errors.New("core: identifier length out of range")
	// ErrBadProbability indicates a failure probability outside [0, 1].
	ErrBadProbability = errors.New("core: failure probability out of [0,1]")
	// ErrBadDistance indicates a routing distance outside [1, MaxDistance].
	ErrBadDistance = errors.New("core: routing distance out of range")
)

// MaxDimension bounds the identifier length accepted by the evaluators.
// Fig. 7(a) uses d=100; the log-space pipeline stays accurate well past
// that, and the cap keeps the XOR evaluation — O(d) Pow calls plus O(d²)
// multiply-adds per series — bounded.
const MaxDimension = 8192

func validateDQ(d int, q float64) error {
	if d < 1 || d > MaxDimension {
		return fmt.Errorf("%w: d=%d not in [1,%d]", ErrBadDimension, d, MaxDimension)
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return fmt.Errorf("%w: q=%v", ErrBadProbability, q)
	}
	return nil
}

// Default instances of the five geometries analyzed in the paper. Symphony
// uses the Fig. 7 footnote setting kn = ks = 1.
func AllGeometries() []Geometry {
	return []Geometry{Tree{}, Hypercube{}, XOR{}, Ring{}, DefaultSymphony()}
}
