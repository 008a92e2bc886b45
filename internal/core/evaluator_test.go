package core

import (
	"math"
	"sync"
	"testing"
)

// TestEvaluatorMatchesDirect verifies the memoized evaluator is bit-identical
// to the package-level functions over a (geometry × d × q) grid, up to the
// largest d of the paper's grid, in either evaluation order.
func TestEvaluatorMatchesDirect(t *testing.T) {
	ds := []int{4, 8, 16, 32, 64, 128, 200}
	qs := []float64{0, 0.05, 0.1, 0.3, 0.5, 0.9, 1}
	// Descending d exercises prefix reuse: the series is built at d=200
	// and every smaller d reads a prefix of it. Ascending d exercises
	// extension: every larger d walks on from the end of the last series.
	for _, descending := range []bool{true, false} {
		e := NewEvaluator()
		for _, g := range AllGeometries() {
			for i := range ds {
				d := ds[i]
				if descending {
					d = ds[len(ds)-1-i]
				}
				for _, q := range qs {
					want, err := Routability(g, d, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Routability(g, d, q)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s d=%d q=%v descending=%v: evaluator %v != direct %v", g.Name(), d, q, descending, got, want)
					}
					wantES, err := ExpectedReach(g, d, q)
					if err != nil {
						t.Fatal(err)
					}
					gotES, err := e.ExpectedReach(g, d, q)
					if err != nil {
						t.Fatal(err)
					}
					if gotES != wantES && !(math.IsNaN(gotES) && math.IsNaN(wantES)) {
						t.Errorf("%s d=%d q=%v descending=%v: E[S] %v != %v", g.Name(), d, q, descending, gotES, wantES)
					}
				}
			}
		}
	}
}

// stubGeometry is a geometry keyOf has no case for; it embeds Hypercube,
// whose case it must not take.
type stubGeometry struct {
	Hypercube
	Tag int
}

// sliceGeometry is a geometry whose value is not comparable.
type sliceGeometry struct {
	Hypercube
	Tags []int
}

// TestMemoKeyDistinguishesGeometries: two geometries share a memo key
// exactly when their values are equal — Symphony and GeneralizedTree
// configurations key apart, and a geometry embedding Hypercube keys apart
// from Hypercube — and a geometry whose value is not comparable keys by
// its formatted value rather than panicking in the memo's maps.
func TestMemoKeyDistinguishesGeometries(t *testing.T) {
	geoms := append(AllGeometries(), SingleHop{},
		Symphony{KN: 2, KS: 3}, Symphony{KN: 3, KS: 2},
		GeneralizedTree{Base: 3}, GeneralizedTree{Base: 4},
		stubGeometry{Tag: 7}, stubGeometry{Tag: 8},
		sliceGeometry{Tags: []int{1}}, sliceGeometry{Tags: []int{2}})
	for i, a := range geoms {
		for j, b := range geoms {
			if same := keyOf(a) == keyOf(b); same != (i == j) {
				t.Errorf("keyOf(%#v) == keyOf(%#v) is %v", a, b, same)
			}
		}
	}
	if keyOf(Symphony{KN: 2, KS: 3}) != keyOf(Symphony{KN: 2, KS: 3}) {
		t.Error("equal Symphony values key apart")
	}

	g := sliceGeometry{Tags: []int{1}}
	want, err := Routability(g, 16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator()
	for range 2 {
		if got, err := e.Routability(g, 16, 0.1); err != nil || got != want {
			t.Errorf("evaluator on a non-comparable geometry: %v, %v; want %v", got, err, want)
		}
	}
}

// TestEvaluatorMemoHitAllocs: a repeated evaluation is answered from the
// memo without allocating, the key included.
func TestEvaluatorMemoHitAllocs(t *testing.T) {
	e := NewEvaluator()
	if _, err := e.LogExpectedReach(XOR{}, 64, 0.3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.LogExpectedReach(XOR{}, 64, 0.3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit allocates %v times, want 0", allocs)
	}
}

// TestEvaluatorSymphonyKeying ensures d-dependent geometries (Symphony) do
// not share cached series across system sizes or configurations.
func TestEvaluatorSymphonyKeying(t *testing.T) {
	e := NewEvaluator()
	s11 := DefaultSymphony()
	s13 := Symphony{KN: 1, KS: 3}
	for _, d := range []int{16, 32} {
		for _, g := range []Geometry{s11, s13} {
			want, err := Routability(g, d, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Routability(g, d, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("symphony kn=%d ks=%d d=%d: %v != %v", g.(Symphony).KN, g.(Symphony).KS, d, got, want)
			}
		}
	}
}

// TestEvaluatorConcurrent hammers one shared evaluator from many goroutines
// and checks every result against the direct path (run with -race).
func TestEvaluatorConcurrent(t *testing.T) {
	e := NewEvaluator()
	geoms := AllGeometries()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				g := geoms[(w+i)%len(geoms)]
				d := 8 + (i%4)*8
				q := 0.1 + 0.1*float64(w%5)
				got, err := e.Routability(g, d, q)
				if err != nil {
					errs <- err.Error()
					return
				}
				want, _ := Routability(g, d, q)
				if got != want {
					errs <- g.Name()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Errorf("concurrent mismatch: %s", msg)
	}
}

// TestEvaluatorValidation checks the memoized paths reject the same inputs
// as the direct ones.
func TestEvaluatorValidation(t *testing.T) {
	e := NewEvaluator()
	if _, err := e.Routability(Tree{}, 0, 0.5); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := e.Routability(Tree{}, 16, -0.1); err == nil {
		t.Error("q<0 accepted")
	}
}
