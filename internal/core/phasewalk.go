package core

import "math"

// powBufLen sizes the stack table of powers q^j the phase formulas read:
// every d of the paper's grids (d ≤ 200) fits without a heap allocation.
const powBufLen = 257

// powers returns a table pw of n+1 entries with pw[j] = math.Pow(q, j)
// for j = lo..n, stored in buf when it fits; entries below lo are not
// filled.
func powers(buf []float64, q float64, lo, n int) []float64 {
	if n >= len(buf) {
		buf = make([]float64, n+1)
	}
	pw := buf[:n+1]
	for j := lo; j <= n; j++ {
		pw[j] = math.Pow(q, float64(j))
	}
	return pw
}

// walkPhases calls yield(m, Q(m)) for m = from..to of g at (d, q), in
// order, until yield returns false: the one loop over phases in this
// package. XOR, Ring and Hypercube read every q^j from one table built per
// walk, so XOR's series to h costs O(h) Pow calls plus O(h²) multiply-adds,
// not O(h²) Pow calls. Tree, GeneralizedTree and Symphony, whose Q is
// m-free, evaluate it once; any other geometry calls its own PhaseFailure.
// Each value is bit-identical to g.PhaseFailure(d, m, q).
func walkPhases(g Geometry, d int, q float64, from, to int, yield func(m int, Q float64) bool) {
	lo := from // the lowest power read: Hypercube's phase m reads q^m
	switch g.(type) {
	case XOR:
		lo = 1 // phase m reads q^1..q^m
	case Ring:
		lo = from - 1 // phase m reads q^(m−1) and q^m
	case Hypercube:
	case Tree, GeneralizedTree, Symphony:
		Q := g.PhaseFailure(d, from, q)
		for m := from; m <= to && yield(m, Q); m++ {
		}
		return
	default:
		for m := from; m <= to && yield(m, g.PhaseFailure(d, m, q)); m++ {
		}
		return
	}
	var buf [powBufLen]float64
	pw := powers(buf[:], q, lo, to)
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
			return
		}
	}
}
