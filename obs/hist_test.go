package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose range contains it:
	// bucketUpper(idx) >= v and (idx == 0 or bucketUpper(idx-1) < v).
	vals := []int64{0, 1, 2, 63, 127, 128, 129, 255, 256, 1000, 4095, 1 << 20, 1<<41 - 1, 1 << 41, math.MaxInt64}
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if v < 1<<41 { // below the clamp, containment must be exact
			if up := bucketUpper(idx); up < v {
				t.Errorf("bucketUpper(%d)=%d < v=%d", idx, up, v)
			}
			if idx > 0 && bucketUpper(idx-1) >= v {
				t.Errorf("bucketUpper(%d)=%d >= v=%d (bucket not minimal)", idx-1, bucketUpper(idx-1), v)
			}
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("bucketIndex(-5) = %d, want 0", got)
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper not strictly increasing at %d: %d <= %d", i, up, prev)
		}
		prev = up
	}
}

func TestExactSmallQuantiles(t *testing.T) {
	// Hop counts live far below 128, so quantiles are exact order
	// statistics there.
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if h.P50() != 50 || h.P99() != 99 || h.P999() != 100 {
		t.Errorf("P50/P99/P999 = %d/%d/%d", h.P50(), h.P99(), h.P999())
	}
	if h.Min() != 1 || h.Max() != 100 || h.Sum() != 5050 || h.Count() != 100 {
		t.Errorf("summary: min=%d max=%d sum=%d n=%d", h.Min(), h.Max(), h.Sum(), h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", h.Mean())
	}
}

func TestLogBucketRelativeError(t *testing.T) {
	// Above the linear range the quantile may overestimate, but never
	// by more than one sub-bucket width (1/16 of the value's octave).
	var h Histogram
	h.Observe(100_000)
	got := h.P50()
	if got < 100_000 || float64(got) > 100_000*(1+1.0/subCount) {
		t.Errorf("P50 of {100000} = %d, want within +6.25%%", got)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Error("empty histogram has nonzero summary")
	}
	if !math.IsNaN(h.Mean()) {
		t.Errorf("empty Mean = %v, want NaN", h.Mean())
	}
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty Quantile = %d, want 0", h.Quantile(0.5))
	}
	if h.String() != "n=0" {
		t.Errorf("empty String = %q", h.String())
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p99":0,"p999":0,"buckets":[]}`; string(b) != want {
		t.Errorf("empty JSON = %s, want %s", b, want)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	// Merging any partition of the observations, in any order, must
	// produce a bit-identical Histogram value (the property eventsim's
	// (Seed, Shards) bit-identity contract leans on).
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64() * 1000)
	}

	var whole Histogram
	for _, v := range vals {
		whole.Observe(v)
	}

	var parts [4]Histogram
	for i, v := range vals {
		parts[i%4].Observe(v)
	}
	var fwd Histogram
	for i := range parts {
		fwd.Merge(&parts[i])
	}
	var rev Histogram
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(&parts[i])
	}

	if whole != fwd || whole != rev {
		t.Fatal("merge is not order-independent / partition-independent")
	}
	var empty Histogram
	fwd.Merge(&empty)
	if fwd != whole {
		t.Fatal("merging an empty histogram changed state")
	}
}

func TestObserveMergeAllocFree(t *testing.T) {
	var h, other Histogram
	other.Observe(3)
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(42)
		h.Observe(1 << 20)
		h.Merge(&other)
	}); n != 0 {
		t.Errorf("Observe/Merge allocated %.1f times per run, want 0", n)
	}
}

func TestJSONAndText(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"count":3,"sum":9,"min":2,"max":4,"mean":3,"p50":3,"p99":4,"p999":4,"buckets":[[2,1],[3,1],[4,1]]}`
	if string(b) != want {
		t.Errorf("JSON = %s\nwant   %s", b, want)
	}
	var parsed map[string]any
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	if out := h.String(); !strings.Contains(out, "n=3 mean=3.00 p50=3") {
		t.Errorf("String = %q", out)
	}
}

func TestQuantileClamping(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(7)
	if h.Quantile(-1) != 5 {
		t.Errorf("Quantile(-1) = %d, want 5", h.Quantile(-1))
	}
	if h.Quantile(2) != 7 {
		t.Errorf("Quantile(2) = %d, want 7", h.Quantile(2))
	}
}
