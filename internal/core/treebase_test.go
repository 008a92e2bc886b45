package core_test

import (
	"math"
	"testing"

	"rcm/internal/core"
	"rcm/internal/numeric"
)

func TestGeneralizedTreeValidation(t *testing.T) {
	if _, err := core.NewGeneralizedTree(1); err == nil {
		t.Error("base 1 accepted")
	}
	g, err := core.NewGeneralizedTree(16)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "tree-b16" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestGeneralizedTreeBase2MatchesTree(t *testing.T) {
	g2, err := core.NewGeneralizedTree(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{3, 8, 16} {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			want, err := core.Routability(core.Tree{}, d, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g2.Routability(d, q)
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelDiff(got, want) > 1e-10 {
				t.Errorf("d=%d q=%v: base-2 %v vs binary tree %v", d, q, got, want)
			}
		}
	}
}

func TestGeneralizedTreeDistanceSum(t *testing.T) {
	// Σ_h n(h) = b^d − 1.
	for _, base := range []int{2, 4, 16} {
		g, err := core.NewGeneralizedTree(base)
		if err != nil {
			t.Fatal(err)
		}
		d := 5
		var sum float64
		for h := 1; h <= d; h++ {
			sum += math.Exp(g.LogNodesAt(d, h))
		}
		want := math.Pow(float64(base), float64(d)) - 1
		if numeric.RelDiff(sum, want) > 1e-9 {
			t.Errorf("base %d: Σn(h) = %v, want %v", base, sum, want)
		}
	}
}

func TestGeneralizedTreeClosedFormMatchesPipeline(t *testing.T) {
	for _, base := range []int{2, 4, 16} {
		g, err := core.NewGeneralizedTree(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{4, 8, 20} {
			for _, q := range []float64{0, 0.1, 0.4, 0.8, 1} {
				closed, err := g.ClosedFormRoutability(d, q)
				if err != nil {
					t.Fatal(err)
				}
				generic, err := g.Routability(d, q)
				if err != nil {
					t.Fatal(err)
				}
				if numeric.RelDiff(closed, generic) > 1e-9 {
					t.Errorf("base %d d=%d q=%v: closed %v vs pipeline %v",
						base, d, q, closed, generic)
				}
			}
		}
	}
}

func TestLargerBaseHelpsButNotAsymptotically(t *testing.T) {
	// At equal N = 2^16: base 16 uses d=4 digits instead of 16, so routes
	// are shorter and routability higher — but Q(m) = q still diverges, so
	// the verdict cannot change.
	q := 0.3
	r2, err := core.Routability(core.Tree{}, 16, q)
	if err != nil {
		t.Fatal(err)
	}
	g16, err := core.NewGeneralizedTree(16)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := g16.Routability(4, q) // 16^4 = 2^16
	if err != nil {
		t.Fatal(err)
	}
	if r16 <= r2 {
		t.Errorf("base 16 (%v) did not beat base 2 (%v) at equal N", r16, r2)
	}
	// Unscalable regardless of radix.
	if v := core.Classify(g16, q, core.ClassifyOptions{}); v != core.Unscalable {
		t.Errorf("base-16 tree classified %v, want unscalable", v)
	}
	// And the decay with d persists at any base.
	prev := 1.0
	for _, d := range []int{4, 8, 16, 32} {
		r, err := g16.Routability(d, q)
		if err != nil {
			t.Fatal(err)
		}
		if r >= prev {
			t.Errorf("base-16 routability did not decay at d=%d: %v >= %v", d, r, prev)
		}
		prev = r
	}
}

func TestRoutabilityBaseBValidation(t *testing.T) {
	// The radix is checked where the geometry is made, d and q by the pipeline.
	if _, err := core.NewGeneralizedTree(1); err == nil {
		t.Error("base 1 accepted")
	}
	if _, err := (core.GeneralizedTree{Base: 2}).Routability(0, 0.1); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestGeneralizedTreeZeroValueSafe(t *testing.T) {
	var g core.GeneralizedTree // Base 0 → floored to 2
	if got := g.Name(); got != "tree-b2" {
		t.Errorf("zero-value Name = %q", got)
	}
	if got := math.Exp(g.LogNodesAt(4, 1)); math.Abs(got-4) > 1e-12 {
		t.Errorf("zero-value n(1) = %v, want 4", got)
	}
}
