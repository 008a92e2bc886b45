package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false},  // rank 10: nine beyond
		{20, 0.5, 10, true},  // rank 10: ten beyond
		{99, 0.9, 0, false},  // rank 90: nine beyond
		{100, 0.9, 90, true}, // rank 90: ten beyond
		{1000, 0.99, 990, true},
		{1000, 0.999, 0, false}, // rank 999: one beyond
		{10000, 0.999, 9990, true},
	} {
		got, ok := percentile(sample(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// The expected values are those of Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles -> [10.375, 11.75, 13.25]; median 11.75
	want := (13.25 - 10.375) / 11.75
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("quartileSpread of three values = %v, want 0", got)
	}
}
