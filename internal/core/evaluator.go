package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"rcm/internal/numeric"
)

// Evaluator memoizes the log-success prefix products
//
//	cum(h) = Σ_{m=1..h} ln(1 − Q(m))
//
// that every analytic quantity — SuccessProb (Eq. 5), LogExpectedReach
// (§4.1 step 4) and Routability (Eq. 3) — is built from. The products share
// prefixes not just across h within one evaluation but across the whole
// (d, q) grid of a sweep: for the d-invariant geometries (tree, hypercube,
// XOR, ring) the series at a given q is the same for every system size, so
// a d-sweep pays the XOR phase cost — O(maxD) Pow calls plus O(maxD²)
// multiply-adds, see walkPhases — once instead of once per d. The
// final ln E[S] per cell is cached too, so Routability and ExpectedReach at
// the same grid point share a single pass.
//
// An Evaluator is safe for concurrent use; the zero value is NOT usable,
// call NewEvaluator. Results are bit-identical to the package-level
// functions: the cached series is accumulated in exactly the same order.
type Evaluator struct {
	mu     sync.Mutex
	series map[seriesKey]*phaseSeries
	reach  map[reachKey]float64
	nodes  map[nodesKey][]float64
}

// seriesKey identifies one cached prefix-product series. dim is 0 for
// geometries whose PhaseFailure is independent of d.
type seriesKey struct {
	geom string
	dim  int
	q    float64
}

// reachKey identifies one cached ln E[S] value.
type reachKey struct {
	geom string
	dim  int
	q    float64
}

// nodesKey identifies one cached ln n(h) vector; the distance distribution
// is independent of q, so it is shared across a plan's whole q-grid.
type nodesKey struct {
	geom string
	dim  int
}

// phaseSeries holds cum[h-1] = Σ_{m=1..h} ln(1 − Q(m)), grown lazily. Each
// series has its own lock so concurrent workers extending different grid
// columns do not serialize on the Evaluator.
type phaseSeries struct {
	mu  sync.Mutex
	cum []float64
}

// NewEvaluator returns an empty memoizing evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		series: make(map[seriesKey]*phaseSeries),
		reach:  make(map[reachKey]float64),
		nodes:  make(map[nodesKey][]float64),
	}
}

// geomID returns a stable identity string for a geometry value. Geometries
// are immutable value types, so the formatted type+fields pair is a faithful
// cache key (e.g. Symphony kn/ks configurations key separately). The
// built-in geometries spell fmt's "%T%+v" out without fmt, since every
// memoized evaluation computes the key; any other geometry formats it.
func geomID(g Geometry) string {
	switch g := g.(type) {
	case Tree:
		return "core.Tree{}"
	case Hypercube:
		return "core.Hypercube{}"
	case XOR:
		return "core.XOR{}"
	case Ring:
		return "core.Ring{}"
	case SingleHop:
		return "core.SingleHop{}"
	case Symphony:
		return "core.Symphony{KN:" + strconv.Itoa(g.KN) + " KS:" + strconv.Itoa(g.KS) + "}"
	case GeneralizedTree:
		return "core.GeneralizedTree{Base:" + strconv.Itoa(g.Base) + "}"
	}
	return fmt.Sprintf("%T%+v", g, g)
}

// phaseDependsOnD reports whether g's Q(m) depends on the identifier
// length. Only Symphony's does among the paper's geometries; unknown
// geometries are treated conservatively as d-dependent.
func phaseDependsOnD(g Geometry) bool {
	switch g.(type) {
	case Tree, Hypercube, XOR, Ring, GeneralizedTree:
		return false
	}
	return true
}

// prefix returns cum(1..h) for the geometry g, identified by id, at (d, q),
// extending the cached series as needed. The returned slice must not be
// modified.
func (e *Evaluator) prefix(g Geometry, id string, d, h int, q float64) []float64 {
	key := seriesKey{geom: id, q: q}
	if phaseDependsOnD(g) {
		key.dim = d
	}
	e.mu.Lock()
	s, ok := e.series[key]
	if !ok {
		s = &phaseSeries{}
		e.series[key] = s
	}
	e.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cum) < h {
		// A Q equal to the last phase's (tree and Symphony every phase,
		// the others once q^m underflows) reuses its log.
		lastQ, inc := math.NaN(), 0.0
		walkPhases(g, d, q, len(s.cum)+1, h, func(m int, Q float64) bool {
			if Q != lastQ {
				lastQ, inc = Q, math.Log1p(-Q)
			}
			prev := 0.0
			if m > 1 {
				prev = s.cum[m-2]
			}
			s.cum = append(s.cum, prev+inc)
			return true
		})
	}
	return s.cum[:h]
}

// logNodes returns ln n(h) for h = 1..maxH, cached per (geometry, d): the
// distance distribution does not depend on q, so one vector serves the
// whole q-grid. The returned slice must not be modified.
func (e *Evaluator) logNodes(g Geometry, id string, d, maxH int) []float64 {
	key := nodesKey{geom: id, dim: d}
	e.mu.Lock()
	if v, ok := e.nodes[key]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()

	v := make([]float64, maxH)
	for h := 1; h <= maxH; h++ {
		v[h-1] = g.LogNodesAt(d, h)
	}
	e.mu.Lock()
	e.nodes[key] = v
	e.mu.Unlock()
	return v
}

// LogExpectedReach is the memoized equivalent of the package-level
// LogExpectedReach.
func (e *Evaluator) LogExpectedReach(g Geometry, d int, q float64) (float64, error) {
	if err := validateDQ(d, q); err != nil {
		return 0, err
	}
	id := geomID(g)
	key := reachKey{geom: id, dim: d, q: q}
	e.mu.Lock()
	if v, ok := e.reach[key]; ok {
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()

	maxH := g.MaxDistance(d)
	cum := e.prefix(g, id, d, maxH, q)
	logN := e.logNodes(g, id, d, maxH)
	terms := make([]float64, 0, maxH)
	for h := 1; h <= maxH; h++ {
		terms = append(terms, logN[h-1]+cum[h-1])
	}
	v := numeric.LogSumExp(terms)

	e.mu.Lock()
	e.reach[key] = v
	e.mu.Unlock()
	return v, nil
}

// ExpectedReach is the memoized equivalent of the package-level
// ExpectedReach.
func (e *Evaluator) ExpectedReach(g Geometry, d int, q float64) (float64, error) {
	logES, err := e.LogExpectedReach(g, d, q)
	if err != nil {
		return 0, err
	}
	return math.Exp(logES), nil
}

// Routability is the memoized equivalent of the package-level Routability.
func (e *Evaluator) Routability(g Geometry, d int, q float64) (float64, error) {
	return routabilityFromLogES(d, q, math.Ln2, func() (float64, error) {
		return e.LogExpectedReach(g, d, q)
	})
}

// FailedPathPercent is the memoized equivalent of the package-level
// FailedPathPercent.
func (e *Evaluator) FailedPathPercent(g Geometry, d int, q float64) (float64, error) {
	r, err := e.Routability(g, d, q)
	if err != nil {
		return 0, err
	}
	return 100 * (1 - r), nil
}
