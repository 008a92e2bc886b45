package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"rcm/internal/core"
	"rcm/internal/markov"
	"rcm/internal/numeric"
)

var qGrid = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 1}

func TestRoutabilityPerfectAtZeroFailure(t *testing.T) {
	for _, g := range core.AllGeometries() {
		for _, d := range []int{2, 8, 16, 64, 100} {
			r, err := core.Routability(g, d, 0)
			if err != nil {
				t.Fatalf("%s d=%d: %v", g.Name(), d, err)
			}
			if r != 1 {
				t.Errorf("%s d=%d: r(q=0) = %v, want 1", g.Name(), d, r)
			}
		}
	}
}

func TestRoutabilityZeroAtFullFailure(t *testing.T) {
	for _, g := range core.AllGeometries() {
		r, err := core.Routability(g, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r != 0 {
			t.Errorf("%s: r(q=1) = %v, want 0", g.Name(), r)
		}
	}
}

func TestRoutabilityInUnitInterval(t *testing.T) {
	for _, g := range core.AllGeometries() {
		g := g
		f := func(d8 uint8, qRaw float64) bool {
			d := int(d8%100) + 2
			q := math.Abs(math.Mod(qRaw, 1))
			r, err := core.Routability(g, d, q)
			return err == nil && r >= 0 && r <= 1 && !math.IsNaN(r)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestRoutabilityMonotoneInQ(t *testing.T) {
	// More failures can only hurt: r must be non-increasing in q. Symphony's
	// analytic expression leaves its validity region once ks/d + q^{kn+ks}
	// exceeds 1 (q ≳ 0.93 at d=16), where routability is ~1e-5 anyway; a
	// small absolute slack keeps the check meaningful without tripping on
	// that extrapolated tail.
	const slack = 1e-4
	for _, g := range core.AllGeometries() {
		prev := math.Inf(1)
		for _, q := range qGrid {
			r, err := core.Routability(g, 16, q)
			if err != nil {
				t.Fatal(err)
			}
			if r > prev+slack {
				t.Errorf("%s: r increased from %v to %v at q=%v", g.Name(), prev, r, q)
			}
			prev = r
		}
	}
}

func TestSuccessProbProductRecurrence(t *testing.T) {
	// p(h) = p(h-1)·(1 − Q(h)) directly from Eq. 5.
	for _, g := range core.AllGeometries() {
		d := 16
		for _, q := range []float64{0.1, 0.4, 0.8} {
			prev := 1.0
			for h := 1; h <= d; h++ {
				p, err := core.SuccessProb(g, d, h, q)
				if err != nil {
					t.Fatal(err)
				}
				want := prev * (1 - g.PhaseFailure(d, h, q))
				if math.Abs(p-want) > 1e-9 {
					t.Errorf("%s q=%v h=%d: p=%v, want %v", g.Name(), q, h, p, want)
				}
				prev = p
			}
		}
	}
}

func TestSuccessProbMonotoneInH(t *testing.T) {
	for _, g := range core.AllGeometries() {
		for _, q := range []float64{0.2, 0.6} {
			prev := 1.0
			for h := 1; h <= 16; h++ {
				p, err := core.SuccessProb(g, 16, h, q)
				if err != nil {
					t.Fatal(err)
				}
				if p > prev+1e-12 {
					t.Errorf("%s q=%v: p increased at h=%d (%v > %v)", g.Name(), q, h, p, prev)
				}
				prev = p
			}
		}
	}
}

// Chain agreement: the generic RCM pipeline must match the explicit Markov
// chains of Fig. 4/5/8 for every geometry.

func TestSuccessProbMatchesTreeChain(t *testing.T) {
	for h := 1; h <= 8; h++ {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			c, ep, err := markov.TreeChain(h, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.AbsorptionProb(ep.Start, ep.Success)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SuccessProb(core.Tree{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("tree h=%d q=%v: core %v vs chain %v", h, q, got, want)
			}
		}
	}
}

func TestSuccessProbMatchesHypercubeChain(t *testing.T) {
	for h := 1; h <= 8; h++ {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			c, ep, err := markov.HypercubeChain(h, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.AbsorptionProb(ep.Start, ep.Success)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SuccessProb(core.Hypercube{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("hypercube h=%d q=%v: core %v vs chain %v", h, q, got, want)
			}
		}
	}
}

func TestSuccessProbMatchesXORChain(t *testing.T) {
	for h := 1; h <= 8; h++ {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			c, ep, err := markov.XORChain(h, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.AbsorptionProb(ep.Start, ep.Success)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SuccessProb(core.XOR{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("xor h=%d q=%v: core %v vs chain %v", h, q, got, want)
			}
		}
	}
}

func TestSuccessProbMatchesRingChain(t *testing.T) {
	for h := 1; h <= 10; h++ {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			c, ep, err := markov.RingChain(h, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.AbsorptionProb(ep.Start, ep.Success)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SuccessProb(core.Ring{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("ring h=%d q=%v: core %v vs chain %v", h, q, got, want)
			}
		}
	}
}

func TestSuccessProbMatchesSymphonyChain(t *testing.T) {
	for _, tc := range []struct {
		d      int
		kn, ks int
	}{
		{16, 1, 1},
		{16, 2, 2},
		{32, 1, 3},
	} {
		sym := core.Symphony{KN: tc.kn, KS: tc.ks}
		for h := 1; h <= 4; h++ {
			for _, q := range []float64{0.1, 0.4, 0.7} {
				c, ep, err := markov.SymphonyChain(h, tc.d, q, tc.kn, tc.ks)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.AbsorptionProb(ep.Start, ep.Success)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.SuccessProb(sym, tc.d, h, q)
				if err != nil {
					t.Fatal(err)
				}
				if numeric.RelDiff(got, want) > 1e-9 {
					t.Errorf("symphony d=%d kn=%d ks=%d h=%d q=%v: core %v vs chain %v",
						tc.d, tc.kn, tc.ks, h, q, got, want)
				}
			}
		}
	}
}

func TestTreeClosedFormMatchesPipeline(t *testing.T) {
	// §4.3.1: r = ((2−q)^d − 1)/((1−q)2^d − 1) must equal the generic
	// pipeline's output exactly (both are the same sum, different orders).
	tree := core.Tree{}
	for _, d := range []int{2, 4, 8, 16, 32, 64, 100} {
		for _, q := range qGrid {
			closed, err := tree.ClosedFormRoutability(d, q)
			if err != nil {
				t.Fatal(err)
			}
			generic, err := core.Routability(tree, d, q)
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelDiff(closed, generic) > 1e-9 {
				t.Errorf("tree d=%d q=%v: closed %v vs pipeline %v", d, q, closed, generic)
			}
		}
	}
}

func TestExpectedReachTreeBinomialIdentity(t *testing.T) {
	// E[S]_tree = Σ C(d,h)(1−q)^h = (2−q)^d − 1.
	for _, d := range []int{3, 8, 16, 50} {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			es, err := core.ExpectedReach(core.Tree{}, d, q)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Pow(2-q, float64(d)) - 1
			if numeric.RelDiff(es, want) > 1e-10 {
				t.Errorf("tree d=%d q=%v: E[S]=%v, want %v", d, q, es, want)
			}
		}
	}
}

func TestExpectedReachBruteForceHypercube(t *testing.T) {
	// Direct double loop in plain float64 against the log-space pipeline.
	d := 12
	for _, q := range []float64{0.15, 0.45, 0.85} {
		var want float64
		p := 1.0
		for h := 1; h <= d; h++ {
			p *= 1 - math.Pow(q, float64(h))
			want += math.Exp(numeric.LogBinomial(d, h)) * p
		}
		got, err := core.ExpectedReach(core.Hypercube{}, d, q)
		if err != nil {
			t.Fatal(err)
		}
		if numeric.RelDiff(got, want) > 1e-10 {
			t.Errorf("hypercube d=%d q=%v: E[S]=%v, want %v", d, q, got, want)
		}
	}
}

func TestFailedPathPercentComplement(t *testing.T) {
	for _, g := range core.AllGeometries() {
		for _, q := range []float64{0, 0.3, 0.8} {
			r, err := core.Routability(g, 16, q)
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.FailedPathPercent(g, 16, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(f-100*(1-r)) > 1e-9 {
				t.Errorf("%s q=%v: failed%%=%v, r=%v", g.Name(), q, f, r)
			}
		}
	}
}

func TestRoutabilityBigOracleAgreement(t *testing.T) {
	// The float64 log-space pipeline vs the 256-bit big.Float oracle.
	for _, g := range core.AllGeometries() {
		for _, d := range []int{4, 16, 64, 100} {
			for _, q := range []float64{0.05, 0.3, 0.6, 0.9} {
				want, err := core.RoutabilityBig(g, d, q, 256)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Routability(g, d, q)
				if err != nil {
					t.Fatal(err)
				}
				// Absolute tolerance: both are probabilities; log-space
				// round-off accumulates over d terms.
				if math.Abs(got-want) > 1e-8 {
					t.Errorf("%s d=%d q=%v: pipeline %v vs big oracle %v",
						g.Name(), d, q, got, want)
				}
			}
		}
	}
}

func TestRoutabilityHugeDimension(t *testing.T) {
	// Fig. 7(a) regime: d=100 and beyond must stay finite and ordered.
	for _, g := range core.AllGeometries() {
		for _, d := range []int{100, 500, 1000} {
			r, err := core.Routability(g, d, 0.1)
			if err != nil {
				t.Fatalf("%s d=%d: %v", g.Name(), d, err)
			}
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Errorf("%s d=%d: r = %v", g.Name(), d, r)
			}
		}
	}
}

func TestRingRoutabilityDominatesXOR(t *testing.T) {
	// §5.4's comparison holds at the routability level too (same n(h)? no —
	// n differs; compare p(h,q) instead at equal h).
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7} {
		for h := 1; h <= 16; h++ {
			pr, err := core.SuccessProb(core.Ring{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			px, err := core.SuccessProb(core.XOR{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if pr < px-1e-12 {
				t.Errorf("q=%v h=%d: ring p=%v < xor p=%v", q, h, pr, px)
			}
		}
	}
}

func TestHypercubeDominatesTree(t *testing.T) {
	// More per-phase options can only help: q^m <= q for m >= 1.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		for h := 1; h <= 16; h++ {
			ph, err := core.SuccessProb(core.Hypercube{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := core.SuccessProb(core.Tree{}, 16, h, q)
			if err != nil {
				t.Fatal(err)
			}
			if ph < pt-1e-12 {
				t.Errorf("q=%v h=%d: hypercube p=%v < tree p=%v", q, h, ph, pt)
			}
		}
	}
}

func TestLogExpectedReachFiniteEverywhere(t *testing.T) {
	f := func(d8 uint8, qRaw float64) bool {
		d := int(d8%120) + 1
		q := math.Abs(math.Mod(qRaw, 1))
		for _, g := range core.AllGeometries() {
			logES, err := core.LogExpectedReach(g, d, q)
			if err != nil {
				return false
			}
			if math.IsNaN(logES) {
				return false
			}
			// Reachable component can never exceed N−1 nodes.
			if logES > float64(d)*math.Ln2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
