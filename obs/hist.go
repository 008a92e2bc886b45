package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Bucket layout. Values 0..linearMax map to width-1 buckets, so small
// integer observations (hop counts!) are exact. Above that, each octave
// [2^k, 2^(k+1)) splits into subCount log sub-buckets (≤ ~6.25%
// relative error), up to octave maxOctave; larger values clamp into the
// final bucket. The boundaries are fixed at compile time — never
// derived from observed data — which is what makes two histograms
// filled in different orders, on different shards, or by different
// schedulers merge to bit-identical state.
const (
	subBits   = 4
	subCount  = 1 << subBits // 16 sub-buckets per octave
	minOctave = subBits + 3  // first split octave: values 128..255
	linearMax = 1<<minOctave - 1
	maxOctave = 40 // last octave: values up to ~2^41 (≈ 25 days in µs)

	numBuckets = (linearMax + 1) + (maxOctave-minOctave+1)*subCount
)

// Histogram is a fixed-boundary log-bucketed histogram of non-negative
// int64 values. The zero value is ready to use. It is a plain value
// type with no pointers, so == compares two histograms bit-for-bit and
// assignment snapshots one. Observe and Merge never allocate.
//
// Histogram is not safe for concurrent use; each writer owns its own
// and merges at a synchronization point (that is the deterministic
// pattern: integer bucket counts make Merge commutative, so any merge
// order yields identical state).
type Histogram struct {
	counts [numBuckets]uint64
	n      uint64
	sum    int64
	min    int64 // valid only when n > 0
	max    int64
}

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v <= linearMax {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1
	if k > maxOctave {
		return numBuckets - 1
	}
	sub := int(v>>(uint(k)-subBits)) & (subCount - 1)
	return (linearMax + 1) + (k-minOctave)*subCount + sub
}

// bucketUpper returns the largest value that maps to bucket i — the
// value Quantile reports for ranks landing in that bucket.
func bucketUpper(i int) int64 {
	if i <= linearMax {
		return int64(i)
	}
	i -= linearMax + 1
	k := minOctave + i/subCount
	sub := i % subCount
	return int64(subCount+sub+1)<<(uint(k)-subBits) - 1
}

// Observe records one value. Negative values are clamped to zero (the
// framework's quantities — hops, latencies, queue depths — are
// non-negative by construction; clamping keeps a stray negative from
// corrupting bucket math).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge folds other into h. Because bucket boundaries are fixed and
// counts are integers, merging is commutative and associative: any
// fold order over any partition of the observations produces the same
// Histogram value.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values (after clamping).
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the upper bound of the bucket holding the
// ceil(q·n)-th smallest observation (q clamped to [0,1]). For values ≤
// 127 — every realistic hop count — buckets have width 1, so the
// result is the exact order statistic. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return h.Max() // unreachable: cum reaches n
}

// P50, P99 and P999 are the percentile accessors the rest of the
// framework quotes: median, tail, and extreme tail.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Buckets calls fn for each non-empty bucket in ascending value order
// with the bucket's inclusive upper bound and its count.
func (h *Histogram) Buckets(fn func(upper int64, count uint64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(bucketUpper(i), c)
		}
	}
}

// String renders the one-line summary used by trace output and the
// rcmd stats command, e.g. "n=100 mean=3.2 p50=3 p99=7 p999=9 max=9".
func (h *Histogram) String() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%d p99=%d p999=%d max=%d",
		h.n, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}

// MarshalJSON renders the histogram as a self-describing object with
// summary statistics and the non-empty buckets in ascending order:
//
//	{"count":3,"sum":9,"min":2,"max":4,"mean":3,
//	 "p50":3,"p99":4,"p999":4,"buckets":[[2,1],[3,1],[4,1]]}
//
// Output is deterministic: fixed key order, buckets sorted by bound.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 128)
	buf = h.appendJSON(buf)
	return buf, nil
}

func (h *Histogram) appendJSON(buf []byte) []byte {
	mean := 0.0
	if h.n > 0 {
		mean = h.Mean()
	}
	buf = append(buf, `{"count":`...)
	buf = strconv.AppendUint(buf, h.n, 10)
	buf = append(buf, `,"sum":`...)
	buf = strconv.AppendInt(buf, h.sum, 10)
	buf = append(buf, `,"min":`...)
	buf = strconv.AppendInt(buf, h.Min(), 10)
	buf = append(buf, `,"max":`...)
	buf = strconv.AppendInt(buf, h.Max(), 10)
	buf = append(buf, `,"mean":`...)
	buf = appendFloat(buf, mean)
	buf = append(buf, `,"p50":`...)
	buf = strconv.AppendInt(buf, h.P50(), 10)
	buf = append(buf, `,"p99":`...)
	buf = strconv.AppendInt(buf, h.P99(), 10)
	buf = append(buf, `,"p999":`...)
	buf = strconv.AppendInt(buf, h.P999(), 10)
	buf = append(buf, `,"buckets":[`...)
	first := true
	h.Buckets(func(upper int64, count uint64) {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, upper, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, count, 10)
		buf = append(buf, ']')
	})
	buf = append(buf, "]}"...)
	return buf
}

// appendFloat renders a float compactly, mapping non-finite values to
// null so the output stays valid JSON.
func appendFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// compile-time check: Histogram must stay directly comparable so value
// equality (and reflect.DeepEqual on Result) keeps working.
var _ = Histogram{} == Histogram{}

// compile-time check: the JSON rendering is a json.Marshaler.
var _ json.Marshaler = (*Histogram)(nil)
