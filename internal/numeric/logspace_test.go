package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return RelDiff(a, b) <= tol
}

func TestLogBinomialSmallExact(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{3, 1, 3},
		{3, 2, 3},
		{3, 3, 1},
		{5, 2, 10},
		{10, 5, 252},
		{16, 8, 12870},
		{20, 10, 184756},
	}
	for _, tt := range tests {
		got := math.Exp(LogBinomial(tt.n, tt.k))
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("C(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestLogBinomialOutOfRange(t *testing.T) {
	for _, tt := range []struct{ n, k int }{
		{3, -1}, {3, 4}, {-1, 0}, {0, 1},
	} {
		if got := LogBinomial(tt.n, tt.k); !math.IsInf(got, -1) {
			t.Errorf("LogBinomial(%d,%d) = %v, want -Inf", tt.n, tt.k, got)
		}
	}
}

func TestLogBinomialSymmetry(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8%200) + 1
		k := int(k8) % (n + 1)
		return math.Abs(LogBinomial(n, k)-LogBinomial(n, n-k)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBinomialPascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) checked in linear space for mid sizes.
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := math.Exp(LogBinomial(n, k))
			rhs := math.Exp(LogBinomial(n-1, k-1)) + math.Exp(LogBinomial(n-1, k))
			if !almostEqual(lhs, rhs, 1e-10) {
				t.Fatalf("Pascal identity failed at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

func TestLogBinomialRowSum(t *testing.T) {
	// Σ_k C(d,k) = 2^d via LogSumExp, for d beyond float64 overflow of 2^d.
	for _, d := range []int{10, 100, 1000, 2000} {
		terms := make([]float64, d+1)
		for k := 0; k <= d; k++ {
			terms[k] = LogBinomial(d, k)
		}
		got := LogSumExp(terms)
		want := float64(d) * math.Ln2
		if math.Abs(got-want) > 1e-7*want {
			t.Errorf("d=%d: logsum C(d,k) = %v, want %v", d, got, want)
		}
	}
}

func TestLogSumExpEmptyAndNegInf(t *testing.T) {
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp([]float64{NegInf, NegInf}); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(-Inf,-Inf) = %v, want -Inf", got)
	}
}

func TestLogSumExpKnown(t *testing.T) {
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if !almostEqual(math.Exp(got), 6, 1e-12) {
		t.Errorf("LogSumExp(log 1,2,3) -> %v, want log 6", got)
	}
}

func TestGuardedPow(t *testing.T) {
	tests := []struct {
		base, exp, want float64
	}{
		{0.5, 2, 0.25},
		{0.5, 1e9, 0},    // deep underflow
		{0.999, 1e30, 0}, // astronomically large exponent, Qring regime
		{1, 123, 1},
		{0, 5, 0},
		{0, 0, 1},
		{0.3, 0, 1},
	}
	for _, tt := range tests {
		if got := GuardedPow(tt.base, tt.exp); !almostEqual(got, tt.want, 1e-12) && got != tt.want {
			t.Errorf("GuardedPow(%v,%v) = %v, want %v", tt.base, tt.exp, got, tt.want)
		}
	}
}

func TestGuardedPowNeverNaN(t *testing.T) {
	f := func(b, e float64) bool {
		b = math.Abs(math.Mod(b, 1))
		e = math.Abs(e)
		got := GuardedPow(b, e)
		return !math.IsNaN(got) && got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-0.1, 0},
		{0, 0},
		{0.5, 0.5},
		{1, 1},
		{1.0000001, 1},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
	}
	for _, tt := range tests {
		if got := Clamp01(tt.in); got != tt.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if got := Clamp01(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Clamp01(NaN) = %v, want NaN", got)
	}
}

func TestKahanSumCompensation(t *testing.T) {
	// Summing 1e-8 ten million times after a large head should stay exact
	// with compensation.
	var k KahanSum
	k.Add(1e8)
	for i := 0; i < 10_000_000; i++ {
		k.Add(1e-8)
	}
	want := 1e8 + 0.1
	if math.Abs(k.Sum()-want) > 1e-6 {
		t.Errorf("Kahan sum = %.12f, want %.12f", k.Sum(), want)
	}
}

func TestLogExpm1(t *testing.T) {
	for _, x := range []float64{1e-8, 0.1, 1, 10, 49, 51, 700} {
		got := LogExpm1(x)
		var want float64
		if x > 30 {
			want = x // exp(x)-1 ≈ exp(x)
		} else {
			want = math.Log(math.Expm1(x))
		}
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("LogExpm1(%v) = %v, want %v", x, got, want)
		}
	}
	if got := LogExpm1(-1); !math.IsNaN(got) {
		t.Errorf("LogExpm1(-1) = %v, want NaN", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := RelDiff(1, 1); got != 0 {
		t.Errorf("RelDiff(1,1) = %v", got)
	}
	if got := RelDiff(0, 0); got != 0 {
		t.Errorf("RelDiff(0,0) = %v", got)
	}
	if got := RelDiff(1, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("RelDiff(1,2) = %v, want 0.5", got)
	}
}
