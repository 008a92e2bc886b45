package core

import "math"

// powBufLen sizes the stack table of powers q^j the phase formulas read:
// every d of the paper's grids (d ≤ 200) fits without a heap allocation.
// A table that outgrows its buffer is reallocated at least this long.
const powBufLen = 257

// powers extends the table pw, whose entries already hold
// pw[j] = math.Pow(q, j), to n+1 entries, computing only the powers it
// lacks.
func powers(pw []float64, q float64, n int) []float64 {
	if n >= cap(pw) {
		grown := make([]float64, len(pw), max(n+1, powBufLen))
		copy(grown, pw)
		pw = grown
	}
	for j := len(pw); j <= n; j++ {
		pw = append(pw, math.Pow(q, float64(j)))
	}
	return pw
}

// walkPhases calls yield(m, Q(m)) for m = from..to of g at (d, q), in
// order, until yield returns false, reading its powers from a fresh table
// on the stack; see walkPhasesTable.
func walkPhases(g Geometry, d int, q float64, from, to int, yield func(m int, Q float64) bool) {
	var buf [powBufLen]float64
	walkPhasesTable(buf[:0], g, d, q, from, to, yield)
}

// walkPhasesTable is walkPhases over the table pw of powers of q (see
// powers), which it extends as far as the walk reads and returns: the one
// loop over phases in this package. XOR, Ring and Hypercube read every q^j
// from the table, so XOR's series to h costs O(h) Pow calls plus O(h²)
// multiply-adds, not O(h²) Pow calls, and a table kept between walks of
// one (g, q) — the Evaluator's series — computes each power once. Tree,
// GeneralizedTree and Symphony, whose Q is m-free, evaluate it once; any
// other geometry calls its own PhaseFailure. Each value is bit-identical
// to g.PhaseFailure(d, m, q).
func walkPhasesTable(pw []float64, g Geometry, d int, q float64, from, to int, yield func(m int, Q float64) bool) []float64 {
	switch g.(type) {
	case XOR, Ring, Hypercube:
	case Tree, GeneralizedTree, Symphony:
		Q := g.PhaseFailure(d, from, q)
		for m := from; m <= to && yield(m, Q); m++ {
		}
		return pw
	default:
		for m := from; m <= to && yield(m, g.PhaseFailure(d, m, q)); m++ {
		}
		return pw
	}
	pw = powers(pw, q, to)
	for m := from; m <= to; m++ {
		var Q float64
		switch g.(type) {
		case XOR:
			Q = xorPhase(pw[:m+1], m+1, q)
		case Ring:
			Q = ringPhase(m, q, pw[m], pw[m-1])
		default: // Hypercube: Q(m) = q^m
			Q = pw[m]
		}
		if !yield(m, Q) {
			break
		}
	}
	return pw
}
