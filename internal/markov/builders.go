package markov

import (
	"fmt"
	"math"
)

// Endpoints names the distinguished states of a routing chain: the start
// state S0, the success absorbing state Sh, the failure absorbing state F,
// and the phase-boundary states Phases[i] = Si. Because the routing chains
// are DAGs, Chain.AbsorptionProb(S0, Phases[i]) is the probability the walk
// ever advances i phases, so per-phase success ratios G(S_{i-1}, S_i)
// (paper §4.3) are recoverable from a single chain.
type Endpoints struct {
	Start   StateID
	Success StateID
	Failure StateID
	Phases  []StateID
}

// layout is the state set every routing chain starts from, in id order:
// the states of phase 0, …, phase h−1, then S_h and F. Ids, names and the
// order edges are added in are what topoOrder, the solvers' accumulation
// order and the DOT export read, so the builders below share this layout
// and its epilogue and keep their own edge loops.
type layout struct {
	b      Builder
	phases []StateID   // phases[i] is S_i, the state that enters phase i
	sub    [][]StateID // sub[i][j]: phase i after j suboptimal hops; sub[i][0] == phases[i]
	fail   StateID
}

// newLayout adds width(i) states (i,0)…(i,width(i)−1) for every phase
// i < h; a nil width is the chains without suboptimal hops (Fig. 4), whose
// phase i is the single state named S_i.
func newLayout(h int, width func(i int) int) *layout {
	l := &layout{phases: make([]StateID, h+1), sub: make([][]StateID, h)}
	for i := 0; i < h; i++ {
		if width == nil {
			l.phases[i] = l.b.AddState(fmt.Sprintf("S%d", i))
			continue
		}
		l.sub[i] = make([]StateID, width(i))
		for j := range l.sub[i] {
			l.sub[i][j] = l.b.AddState(fmt.Sprintf("(%d,%d)", i, j))
		}
		l.phases[i] = l.sub[i][0]
	}
	l.phases[h] = l.b.AddState(fmt.Sprintf("S%d", h))
	l.fail = l.b.AddState("F")
	return l
}

// build validates the chain and names its endpoints.
func (l *layout) build() (*Chain, Endpoints, error) {
	c, err := l.b.Build()
	if err != nil {
		return nil, Endpoints{}, err
	}
	h := len(l.phases) - 1
	return c, Endpoints{Start: l.phases[0], Success: l.phases[h], Failure: l.fail, Phases: l.phases}, nil
}

// TreeChain builds the Fig. 4(a) chain for routing to a target h ordered
// bits away in the tree (Plaxton) geometry: at each step exactly one
// neighbor can correct the leftmost differing bit, so each phase advances
// with probability 1−q and fails with probability q.
func TreeChain(h int, q float64) (*Chain, Endpoints, error) {
	if err := checkHQ(h, q); err != nil {
		return nil, Endpoints{}, err
	}
	l := newLayout(h, nil)
	for i := 0; i < h; i++ {
		l.b.AddEdge(l.phases[i], l.phases[i+1], 1-q)
		l.b.AddEdge(l.phases[i], l.fail, q)
	}
	return l.build()
}

// HypercubeChain builds the Fig. 4(b) chain: with i bits already corrected
// there are h−i neighbors that each correct one remaining bit, so the phase
// fails only when all h−i have failed (probability q^{h−i}).
func HypercubeChain(h int, q float64) (*Chain, Endpoints, error) {
	if err := checkHQ(h, q); err != nil {
		return nil, Endpoints{}, err
	}
	l := newLayout(h, nil)
	for i := 0; i < h; i++ {
		remaining := h - i
		fail := math.Pow(q, float64(remaining))
		l.b.AddEdge(l.phases[i], l.phases[i+1], 1-fail)
		l.b.AddEdge(l.phases[i], l.fail, fail)
	}
	return l.build()
}

// XORChain builds the Fig. 5(b) chain for XOR (Kademlia) routing to a target
// h phases away. State (i,j) means i phases advanced and j suboptimal hops
// taken within the current phase; with m = h−i phases remaining:
//
//	advance:    (i,j) → S_{i+1}      with probability 1−q
//	fail:       (i,j) → F            with probability q^{m−j}
//	suboptimal: (i,j) → (i,j+1)      with probability q·(1−q^{m−j−1}), j < m−1
//
// Correcting a lower-order bit consumes one of the phase's options, which is
// why the failure exponent drops with each suboptimal hop — the structural
// difference from ring routing (§4.3.3).
func XORChain(h int, q float64) (*Chain, Endpoints, error) {
	if err := checkHQ(h, q); err != nil {
		return nil, Endpoints{}, err
	}
	l := newLayout(h, func(i int) int { return h - i })
	for i := 0; i < h; i++ {
		m := h - i
		for j := 0; j < m; j++ {
			l.b.AddEdge(l.sub[i][j], l.phases[i+1], 1-q)
			l.b.AddEdge(l.sub[i][j], l.fail, math.Pow(q, float64(m-j)))
			if j < m-1 {
				l.b.AddEdge(l.sub[i][j], l.sub[i][j+1], q*(1-math.Pow(q, float64(m-j-1))))
			}
		}
	}
	return l.build()
}

// RingChain builds the Fig. 8(a) chain for ring (Chord) routing. Unlike XOR,
// a suboptimal hop does not consume options: the failure probability stays
// q^m throughout the phase, and up to 2^{m−1} suboptimal hops may be taken.
// Matching Qring (§4.3.3), a walk that survives the maximum number of
// suboptimal hops is credited to the advancing transition (the truncated
// geometric series in the paper assigns the residual mass to progress).
//
// The state count is Σ 2^{m−1} = 2^h − 1, so h is capped at RingChainMaxH.
func RingChain(h int, q float64) (*Chain, Endpoints, error) {
	if err := checkHQ(h, q); err != nil {
		return nil, Endpoints{}, err
	}
	if h > RingChainMaxH {
		return nil, Endpoints{}, fmt.Errorf("markov: ring chain with h=%d exceeds max %d (2^h state blowup)", h, RingChainMaxH)
	}
	// Phase i allows at most 2^{m−1} suboptimal hops, m = h−i.
	l := newLayout(h, func(i int) int { return 1 << uint(h-i-1) })
	for i := 0; i < h; i++ {
		m := h - i
		k := len(l.sub[i])
		fail := math.Pow(q, float64(m))
		subopt := q * (1 - math.Pow(q, float64(m-1)))
		for j := 0; j < k; j++ {
			advance := 1 - q
			if j == k-1 {
				advance += subopt // residual mass credited to progress
			} else {
				l.b.AddEdge(l.sub[i][j], l.sub[i][j+1], subopt)
			}
			l.b.AddEdge(l.sub[i][j], l.phases[i+1], advance)
			l.b.AddEdge(l.sub[i][j], l.fail, fail)
		}
	}
	return l.build()
}

// RingChainMaxH caps the ring chain's exponential state count (2^h − 1
// states) at about one million states.
const RingChainMaxH = 20

// SymphonyChain builds the Fig. 8(b) chain for Symphony routing to a target
// h phases away in a system with d-bit identifiers and kn near neighbors and
// ks shortcuts per node. Per §3.5, with x = ks/d and y = q^{kn+ks}:
//
//	advance:    → S_{i+1}   with probability x   (a shortcut lands in the phase)
//	fail:       → F         with probability y   (all links dead)
//	suboptimal: → (i,j+1)   with probability 1−x−y
//
// The maximum number of suboptimal hops is J = ⌈d/(1−q)⌉; as with the ring
// chain, the residual mass at (i,J) is credited to the advancing transition
// so the chain reproduces Eq. 7 exactly.
func SymphonyChain(h, d int, q float64, kn, ks int) (*Chain, Endpoints, error) {
	if err := checkHQ(h, q); err != nil {
		return nil, Endpoints{}, err
	}
	if d < 1 || kn < 0 || ks < 1 {
		return nil, Endpoints{}, fmt.Errorf("markov: invalid symphony parameters d=%d kn=%d ks=%d", d, kn, ks)
	}
	x := float64(ks) / float64(d)
	y := math.Pow(q, float64(kn+ks))
	if x+y > 1 {
		return nil, Endpoints{}, fmt.Errorf("markov: symphony parameters give ks/d + q^(kn+ks) = %v > 1; d too small for this q", x+y)
	}
	bigJ := int(math.Ceil(float64(d) / (1 - q)))
	l := newLayout(h, func(int) int { return bigJ + 1 })
	for i := 0; i < h; i++ {
		for j := 0; j <= bigJ; j++ {
			advance := x
			if j == bigJ {
				advance += 1 - x - y
			} else {
				l.b.AddEdge(l.sub[i][j], l.sub[i][j+1], 1-x-y)
			}
			l.b.AddEdge(l.sub[i][j], l.phases[i+1], advance)
			l.b.AddEdge(l.sub[i][j], l.fail, y)
		}
	}
	return l.build()
}

func checkHQ(h int, q float64) error {
	if h < 1 {
		return fmt.Errorf("markov: routing distance h=%d must be >= 1", h)
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return fmt.Errorf("markov: failure probability q=%v out of [0,1]", q)
	}
	return nil
}

// PhaseSuccess returns the per-phase success probabilities
// G(S_{i-1}, S_i) for i = 1..h recovered from the chain: the ratio of the
// probabilities of ever reaching consecutive phase boundaries. This is the
// chain-side counterpart of 1 − Q(m) with m = h−i+1 (Eq. 5).
func PhaseSuccess(c *Chain, ep Endpoints) ([]float64, error) {
	h := len(ep.Phases) - 1
	reach := make([]float64, h+1)
	for i := 0; i <= h; i++ {
		p, err := c.AbsorptionProb(ep.Start, ep.Phases[i])
		if err != nil {
			return nil, err
		}
		reach[i] = p
	}
	out := make([]float64, h)
	for i := 1; i <= h; i++ {
		if reach[i-1] == 0 {
			out[i-1] = 0
			continue
		}
		out[i-1] = reach[i] / reach[i-1]
	}
	return out, nil
}
