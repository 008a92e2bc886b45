package eventsim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// obsConfig is a small lossless massfail run: the mid-run failure
// exercises retransmission, failover and failure paths, so distributions
// and traces see every event kind.
func obsConfig() Config {
	return Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 7},
		Scenario: "massfail",
		Params:   Params{FailFraction: 0.3, FailTime: 1, Rate: 400},
		Duration: 3,
		Seed:     9,
	}
}

// TestHistogramsMatchScalarAggregates pins the distributions to the
// scalar accounting that predates them: per bucket, the histogram's
// count equals Completed, its hop sum equals SumHops, and its mean
// latency (µs) matches SumLatency/Completed.
func TestHistogramsMatchScalarAggregates(t *testing.T) {
	res := mustRun(t, obsConfig())
	if res.HopDist == nil || res.LatDist == nil {
		t.Fatal("distributions nil")
	}
	if len(res.HopDist) != len(res.Buckets) || len(res.LatDist) != len(res.Buckets) {
		t.Fatalf("distribution series length %d/%d, want %d", len(res.HopDist), len(res.LatDist), len(res.Buckets))
	}
	for bi, b := range res.Buckets {
		hd, ld := &res.HopDist[bi], &res.LatDist[bi]
		if int(hd.Count()) != b.Completed || int(ld.Count()) != b.Completed {
			t.Errorf("bucket %d: histogram counts %d/%d, want Completed=%d", bi, hd.Count(), ld.Count(), b.Completed)
		}
		if float64(hd.Sum()) != b.SumHops {
			t.Errorf("bucket %d: hop histogram sum %d, want %v", bi, hd.Sum(), b.SumHops)
		}
		if b.Completed > 0 {
			// Latency values are rounded to integer µs per observation, so
			// the means agree to within a microsecond.
			if got, want := ld.Mean()/1e6, b.MeanLatency(); math.Abs(got-want) > 1e-6 {
				t.Errorf("bucket %d: latency histogram mean %v s, want %v s", bi, got, want)
			}
		}
	}
}

// TestWindowDistAccessors checks window merging: the full window equals
// the fold of all buckets, and sub-windows sum to it.
func TestWindowDistAccessors(t *testing.T) {
	res := mustRun(t, obsConfig())
	full := res.WindowHopDist(0, res.Duration)
	var sum uint64
	for bi := range res.HopDist {
		sum += res.HopDist[bi].Count()
	}
	if full.Count() != sum {
		t.Errorf("full-window count %d, want %d", full.Count(), sum)
	}
	mid := res.Duration / 2
	a := res.WindowHopDist(0, mid)
	b := res.WindowHopDist(mid, res.Duration)
	if a.Count()+b.Count() != full.Count() {
		t.Errorf("split windows %d+%d != %d", a.Count(), b.Count(), full.Count())
	}
	lat := res.WindowLatencyDist(0, res.Duration)
	if lat.Count() != full.Count() {
		t.Errorf("latency window count %d, want %d", lat.Count(), full.Count())
	}
	// Latencies are at least one transport hop: >= min latency in µs.
	if lat.Count() > 0 && lat.Min() < 1000 {
		t.Errorf("latency min %d µs implausibly small", lat.Min())
	}
}

// TestTraceSamplesLookups checks the recorder: sampling picks exactly
// the lookups with index % Trace == 0, every trace is a well-formed
// narrative, and the sampled fraction of hop counts agrees with the
// result's accounting.
func TestTraceSamplesLookups(t *testing.T) {
	cfg := obsConfig()
	cfg.Trace = 7
	res := mustRun(t, cfg)
	if len(res.Traces) == 0 {
		t.Fatal("no traces recorded")
	}
	for _, tr := range res.Traces {
		if tr.Lookup%cfg.Trace != 0 {
			t.Errorf("lookup %d traced but not a multiple of %d", tr.Lookup, cfg.Trace)
		}
		if len(tr.Events) == 0 {
			t.Errorf("lookup %d: empty trace", tr.Lookup)
			continue
		}
		first := tr.Events[0]
		if first.Kind != TraceStart && first.Kind != TraceSkip {
			t.Errorf("lookup %d: first event %q, want start/skip", tr.Lookup, first.Kind)
		}
		prev := math.Inf(-1)
		for _, ev := range tr.Events {
			if ev.T < prev {
				t.Errorf("lookup %d: events out of time order", tr.Lookup)
				break
			}
			prev = ev.T
		}
		// A completed trace's final hop count must match its done event.
		if last := tr.Events[len(tr.Events)-1]; last.Kind == TraceDone {
			if last.Node != tr.Dst {
				t.Errorf("lookup %d: done at node %d, want dst %d", tr.Lookup, last.Node, tr.Dst)
			}
		}
	}
	// Untraced run records nothing.
	cfg.Trace = 0
	if res := mustRun(t, cfg); len(res.Traces) != 0 {
		t.Error("Trace=0 run recorded traces")
	}
}

// TestTraceDeterministic locks traces into the reproducibility
// contract: identical (Seed, Shards) configs yield identical traces on
// both schedulers, including the rendered text.
func TestTraceDeterministic(t *testing.T) {
	cfg := obsConfig()
	cfg.Trace = 5
	var renders []string
	for _, sched := range []struct {
		name string
		run  func(testing.TB, Config) *Result
	}{
		{"wheel", mustRun},
		{"heap", runHeap},
	} {
		a := sched.run(t, cfg)
		b := sched.run(t, cfg)
		if !reflect.DeepEqual(a.Traces, b.Traces) {
			t.Fatalf("%s: two identical runs produced different traces", sched.name)
		}
		var sb strings.Builder
		if err := WriteTraces(&sb, a); err != nil {
			t.Fatal(err)
		}
		renders = append(renders, sb.String())
	}
	if renders[0] != renders[1] {
		t.Error("wheel and heap schedulers rendered different traces")
	}
	if !strings.Contains(renders[0], "outcome=") || !strings.Contains(renders[0], "send") {
		t.Errorf("trace rendering unexpectedly sparse:\n%.400s", renders[0])
	}
}

// TestTraceValidation rejects a negative sampling interval.
func TestTraceValidation(t *testing.T) {
	cfg := obsConfig()
	cfg.Trace = -1
	if _, err := Run(cfg); err == nil {
		t.Error("Trace=-1 accepted")
	}
}

// TestBucketAddIsFieldwise: shards and drain phases merge their tallies
// with Bucket.add, which spells every counter out. Random buckets, every
// field but the window's own description (Start, End, OnlineFraction)
// summed — a counter added to Bucket and forgotten in add fails here.
func TestBucketAddIsFieldwise(t *testing.T) {
	window := map[string]bool{"Start": true, "End": true, "OnlineFraction": true}
	rng := rand.New(rand.NewSource(1))
	fill := func(b *Bucket) {
		v := reflect.ValueOf(b).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Int:
				fv.SetInt(int64(rng.Intn(1000)))
			case reflect.Float64:
				fv.SetFloat(float64(rng.Intn(1000)) / 8) // dyadic: sums are exact
			default:
				t.Fatalf("Bucket.%s has type %s: teach this test (and Bucket.add) about it", v.Type().Field(f).Name, fv.Type())
			}
		}
	}
	var got, o Bucket
	fill(&got)
	fill(&o)
	before := got
	got.add(o)

	gv, bv, ov := reflect.ValueOf(got), reflect.ValueOf(before), reflect.ValueOf(o)
	for f := 0; f < gv.NumField(); f++ {
		name := gv.Type().Field(f).Name
		want := bv.Field(f).Interface()
		if !window[name] {
			if gv.Field(f).Kind() == reflect.Int {
				want = int(bv.Field(f).Int() + ov.Field(f).Int())
			} else {
				want = bv.Field(f).Float() + ov.Field(f).Float()
			}
		}
		if g := gv.Field(f).Interface(); g != want {
			t.Errorf("after add, Bucket.%s = %v, want %v", name, g, want)
		}
	}
}
