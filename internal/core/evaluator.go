package core

import (
	"fmt"
	"math"
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
// multiply-adds, see walkPhases — once instead of once per d. A
// d-dependent geometry's series (Symphony's) is read by one (d, q) cell
// only, so it is summed as it is walked and not kept. The final ln E[S]
// per cell is cached, so Routability and ExpectedReach at the same grid
// point share a single pass.
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

// keyOf returns g's identity in the memo. Geometries are immutable values,
// so the value itself is a faithful key (Symphony kn/ks configurations key
// separately). The built-in geometries are small comparable structs and
// key as themselves, with no formatting per call; any other geometry,
// whose value need not be comparable, keys by its formatted type and
// fields.
func keyOf(g Geometry) any {
	switch g.(type) {
	case Tree, Hypercube, XOR, Ring, SingleHop, Symphony, GeneralizedTree:
		return g
	}
	return fmt.Sprintf("%T%+v", g, g)
}

// seriesKey identifies one cached prefix-product series. Only geometries
// whose PhaseFailure is independent of d have one; see LogExpectedReach.
type seriesKey struct {
	geom any
	q    float64
}

// reachKey identifies one cached ln E[S] value.
type reachKey struct {
	geom any
	dim  int
	q    float64
}

// nodesKey identifies one cached ln n(h) vector; the distance distribution
// is independent of q, so it is shared across a plan's whole q-grid.
type nodesKey struct {
	geom any
	dim  int
}

// phaseSeries holds cum[h-1] = Σ_{m=1..h} ln(1 − Q(m)), grown lazily, and
// pw, the table of powers of q its walks have read (see powers), so that
// extending the series computes only the powers it lacks. Each series has
// its own lock so concurrent workers extending different grid columns do
// not serialize on the Evaluator.
type phaseSeries struct {
	mu  sync.Mutex
	cum []float64
	pw  []float64
}

// logSum accumulates Σ ln(1 − Q(m)) over a walk's phases. A Q equal to the
// last phase's (tree and Symphony every phase, the others once q^m
// underflows) reuses its log.
type logSum struct {
	sum, lastQ, inc float64
}

// add adds ln(1 − Q) and returns the running sum.
func (c *logSum) add(Q float64) float64 {
	if Q != c.lastQ {
		c.lastQ, c.inc = Q, math.Log1p(-Q)
	}
	c.sum += c.inc
	return c.sum
}

// NewEvaluator returns an empty memoizing evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		series: make(map[seriesKey]*phaseSeries),
		reach:  make(map[reachKey]float64),
		nodes:  make(map[nodesKey][]float64),
	}
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

// prefix returns cum(1..h) for the d-invariant geometry g, keyed by gk,
// at (d, q), extending the cached series as needed. The series is sized
// for every d of the paper's grids. The returned slice must not be
// modified.
func (e *Evaluator) prefix(g Geometry, gk any, d, h int, q float64) []float64 {
	key := seriesKey{geom: gk, q: q}
	e.mu.Lock()
	s, ok := e.series[key]
	if !ok {
		s = &phaseSeries{cum: make([]float64, 0, max(h, powBufLen))}
		e.series[key] = s
	}
	e.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.cum); n < h {
		acc := logSum{lastQ: math.NaN()}
		if n > 0 {
			acc.sum = s.cum[n-1]
		}
		s.pw = walkPhasesTable(s.pw, g, d, q, n+1, h, func(_ int, Q float64) bool {
			s.cum = append(s.cum, acc.add(Q))
			return true
		})
	}
	return s.cum[:h]
}

// logNodes returns ln n(h) for h = 1..maxH, cached per (geometry, d): the
// distance distribution does not depend on q, so one vector serves the
// whole q-grid. The returned slice must not be modified.
func (e *Evaluator) logNodes(g Geometry, gk any, d, maxH int) []float64 {
	key := nodesKey{geom: gk, dim: d}
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
	gk := keyOf(g)
	key := reachKey{geom: gk, dim: d, q: q}
	e.mu.Lock()
	if v, ok := e.reach[key]; ok {
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()

	maxH := g.MaxDistance(d)
	logN := e.logNodes(g, gk, d, maxH)
	var buf [powBufLen]float64
	terms := buf[:0]
	if maxH > len(buf) {
		terms = make([]float64, 0, maxH)
	}
	if phaseDependsOnD(g) {
		// A d-dependent series is read by this (d, q) alone, whose result
		// reach keeps, so it is summed straight into the terms, not stored.
		acc := logSum{lastQ: math.NaN()}
		walkPhases(g, d, q, 1, maxH, func(m int, Q float64) bool {
			terms = append(terms, logN[m-1]+acc.add(Q))
			return true
		})
	} else {
		cum := e.prefix(g, gk, d, maxH, q)
		for h := 1; h <= maxH; h++ {
			terms = append(terms, logN[h-1]+cum[h-1])
		}
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
