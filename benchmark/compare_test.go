package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := endToEndDecl{"wall_s", "s", "lower", 0.10}
	higher := endToEndDecl{"work_per_s", "1/s", "higher", 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    endToEndDecl
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"15% slower", lower, steady, scale(steady, 1.15), "regressed"},
		{"15% less throughput", higher, steady, scale(steady, 0.85), "regressed"},
		{"15% more throughput", higher, steady, scale(steady, 1.15), "ok"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.2), "unresolved"},
		{"noisy, but every run better", lower, noisy, scale(steady, 0.5), "ok"},
		{"one run each", lower, []float64{1}, []float64{1.2}, "regressed"},
		{"missing", lower, nil, steady, "unresolved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
