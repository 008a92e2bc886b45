package core

import (
	"math"

	"rcm/internal/numeric"
)

// XOR is the Kademlia XOR routing geometry (§3.3, §4.3.2). Neighbor i is a
// random node at XOR distance [2^{d−i}, 2^{d−i+1}) — equivalently: matching
// the first i−1 bits, flipping bit i, with a random tail. Under failure a
// node may fall back to neighbors that correct lower-order bits, but that
// progress is consumed within the phase (Fig. 5(a)): the failure exponent
// decreases with every suboptimal hop.
type XOR struct{}

var _ Geometry = XOR{}

// Name implements Geometry.
func (XOR) Name() string { return "xor" }

// System implements Geometry.
func (XOR) System() string { return "Kademlia" }

// MaxDistance implements Geometry.
func (XOR) MaxDistance(d int) int { return d }

// LogNodesAt implements Geometry: the neighbor construction mirrors the
// Plaxton tree, so n(h) = C(d,h) (§4.3.2), for h >= 1.
func (XOR) LogNodesAt(d, h int) float64 {
	if h < 1 {
		return numeric.NegInf
	}
	return numeric.LogBinomial(d, h)
}

// PhaseFailure implements Geometry using the exact Eq. 6:
//
//	Qxor(m) = q^m + Σ_{k=1..m−1} q^m · Π_{j=m−k..m−1} (1 − q^j)
//
// The k-th term is the probability of taking k suboptimal (lower-order-bit)
// hops and then finding all remaining options dead. Every q^j is read from
// one table of powers: here this phase's own m+1, filled as the product
// first reads them; in walkPhases the table of powers every phase of a
// series shares. Evaluation is O(m) with an incrementally maintained
// product.
func (XOR) PhaseFailure(_, m int, q float64) float64 {
	var buf [powBufLen]float64
	pw := buf[:]
	if m >= len(buf) {
		pw = make([]float64, m+1)
	}
	return xorPhase(pw[:m+1], 0, q) // an unfilled table
}

// xorPhase is Eq. 6 at phase m = len(pw)−1 over pw[j] = q^j. Entries from
// pw[known] on are filled here, each as math.Pow(q, j) at its first use,
// so a lone phase overlaps its Pow calls with the product chain.
func xorPhase(pw []float64, known int, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	m := len(pw) - 1
	if m >= known {
		pw[m] = math.Pow(q, float64(m))
	}
	qm := pw[m]
	if qm == 0 {
		return 0
	}
	sum := 1.0  // k = 0 term's coefficient (empty product)
	prod := 1.0 // Π_{j=m−k..m−1}(1−q^j), maintained incrementally
	for j := m - 1; j >= 1; j-- {
		if j >= known {
			pw[j] = math.Pow(q, float64(j))
		}
		prod *= 1 - pw[j]
		sum += prod
	}
	return numeric.Clamp01(qm * sum)
}

// PhaseFailureApprox returns the paper's closed-form approximation to Eq. 6
// (obtained via 1−x ≈ e^{−x}):
//
//	Qxor(m) ≈ q^m · ( m + q/(1−q) · ( q^{m−1}(m−1) − (1 − q^{m+1})/(1−q) ) )
//
// It is reproduced for experiment E8, which measures the approximation error
// against the exact expression.
func (XOR) PhaseFailureApprox(m int, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	qm := math.Pow(q, float64(m))
	inner := math.Pow(q, float64(m-1))*float64(m-1) - (1-math.Pow(q, float64(m+1)))/(1-q)
	approx := qm * (float64(m) + q/(1-q)*inner)
	return numeric.Clamp01(approx)
}
