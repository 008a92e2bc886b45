package eventsim

import (
	"math"
	"reflect"
	"testing"

	"rcm/internal/dht"
	"rcm/overlay"
)

// heapQueue is the binary-heap reference the timing wheel is
// differentially tested and benchmarked against: a classic min-heap over
// (t, seq), slice-backed and allocation-free after warm-up (container/heap
// would box every event and skew the benchmark comparison).
type heapQueue struct {
	h []ev
}

func (q *heapQueue) size() int { return len(q.h) }

func (q *heapQueue) minTime() (float64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].t, true
}

func (q *heapQueue) push(e ev) {
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *heapQueue) popBefore(end float64) (ev, bool) {
	h := q.h
	if len(h) == 0 || h[0].t >= end {
		return ev{}, false
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && evLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < last && evLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top, true
}

// runHeap is Run on the binary-heap reference queue: the same overlay
// construction, then the engine through runOverlay's queue-constructor
// seam. Every heap-vs-wheel bit-identity check and
// BenchmarkEventSimScheduler's baseline side go through it.
func runHeap(tb testing.TB, cfg Config) *Result {
	tb.Helper()
	full := cfg.withDefaults()
	p, err := dht.New(full.Protocol, full.Overlay)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := runOverlay(p, cfg, func(float64) eventQueue { return &heapQueue{} })
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestWheelMatchesHeapRandomized drives the two eventQueue implementations
// with an identical randomized schedule-and-drain workload and checks they
// emit byte-for-byte the same event sequence — the differential unit test
// underneath the engine-level bit-identity guarantee. The workload pushes
// bursts at wildly different horizons (same-window, next-window, deep
// level-2, beyond the wheel horizon) to force every wheel path: in-order
// slots, cascades, overflow re-placement and late insertion into the open
// window.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	const width = 0.05
	// The wheel's horizon: beyond it events park in the overflow list.
	const horizon = width / wheelSub * float64(1<<(wheelBits*wheelLevels))
	for trial := uint64(0); trial < 20; trial++ {
		rng := overlay.NewRNG(trial + 1)
		wheel := newWheelQueue(width)
		heap := &heapQueue{}
		seq := uint64(0)
		now := 0.0
		push := func(t float64) {
			e := ev{t: t, seq: seq, node: uint32(seq)}
			seq++
			wheel.push(e)
			heap.push(e)
		}
		// Pre-schedule a batch, like the scenario program does.
		for i := 0; i < 200; i++ {
			// Mix horizons: most nearby (level 0/1), some deep (level 2),
			// a few beyond the wheel horizon (overflow).
			u := rng.Float64()
			switch {
			case u < 0.6:
				push(rng.Float64() * 20)
			case u < 0.9:
				push(rng.Float64() * horizon * 0.9)
			default:
				push(horizon * (1 + rng.Float64()*3))
			}
		}
		for epoch := 0; epoch < 5000 && (wheel.size() > 0 || heap.size() > 0); epoch++ {
			if wheel.size() != heap.size() {
				t.Fatalf("trial %d: size diverged: wheel %d heap %d", trial, wheel.size(), heap.size())
			}
			// Jump like the engine: to the next event's epoch when idle.
			wt, wok := wheel.minTime()
			ht, hok := heap.minTime()
			if wok != hok || (wok && wt != ht) {
				t.Fatalf("trial %d: minTime diverged: wheel (%v,%v) heap (%v,%v)", trial, wt, wok, ht, hok)
			}
			end := now + width
			if jump := width * math.Floor(wt/width); jump > end {
				end = jump + width
			}
			for {
				we, wok := wheel.popBefore(end)
				he, hok := heap.popBefore(end)
				if wok != hok {
					t.Fatalf("trial %d: popBefore(%v) diverged: wheel ok=%v heap ok=%v", trial, end, wok, hok)
				}
				if !wok {
					break
				}
				if we != he {
					t.Fatalf("trial %d: event order diverged at %v: wheel %+v heap %+v", trial, end, we, he)
				}
				// Sometimes reschedule from inside the drain loop, as
				// handlers do: strictly future, sometimes same epoch.
				if rng.Bernoulli(0.3) && seq < 2000 {
					push(we.t + width*(0.5+rng.Float64()*40))
				}
			}
			now = end
		}
		if wheel.size() != 0 || heap.size() != 0 {
			t.Fatalf("trial %d: queues not drained: wheel %d heap %d", trial, wheel.size(), heap.size())
		}
	}
}

// TestWheelLateInsertion covers the open-window insertion path directly:
// an event landing in the slot currently being drained must interleave in
// (t, seq) order with the not-yet-emitted remainder.
func TestWheelLateInsertion(t *testing.T) {
	w := newWheelQueue(32) // slot width 1: slot k covers [k, k+1)
	for i, tt := range []float64{0.2, 0.5, 0.8} {
		w.push(ev{t: tt, seq: uint64(i)})
	}
	e, ok := w.popBefore(1)
	if !ok || e.t != 0.2 {
		t.Fatalf("first pop = %+v, %v", e, ok)
	}
	// Slot [0,1) is open mid-drain; 0.4 and 0.5 (same t, later seq) must
	// interleave before the pending 0.5 and after it respectively.
	w.push(ev{t: 0.4, seq: 10})
	w.push(ev{t: 0.5, seq: 11})
	var got []float64
	var seqs []uint64
	for {
		e, ok := w.popBefore(1)
		if !ok {
			break
		}
		got = append(got, e.t)
		seqs = append(seqs, e.seq)
	}
	wantT := []float64{0.4, 0.5, 0.5, 0.8}
	wantSeq := []uint64{10, 1, 11, 2}
	if !reflect.DeepEqual(got, wantT) || !reflect.DeepEqual(seqs, wantSeq) {
		t.Fatalf("late insertion order: t=%v seq=%v, want t=%v seq=%v", got, seqs, wantT, wantSeq)
	}
	if w.size() != 0 {
		t.Fatalf("size %d after drain", w.size())
	}
}

// TestWheelOverflowCascades exercises the beyond-horizon path: events past
// the top level's span must park in overflow and still come out in exact
// order when the cursor gets there.
func TestWheelOverflowCascades(t *testing.T) {
	const width = 1.0
	w := newWheelQueue(width)
	horizon := width / wheelSub * float64(1<<(wheelBits*wheelLevels))
	times := []float64{horizon * 2.5, 3, horizon + 7, horizon * 2.5, 0.5}
	for i, tt := range times {
		w.push(ev{t: tt, seq: uint64(i)})
	}
	if w.overflow == nilCell {
		t.Fatal("no events parked in overflow despite beyond-horizon times")
	}
	var got []ev
	end := width
	for w.size() > 0 {
		for {
			e, ok := w.popBefore(end)
			if !ok {
				break
			}
			got = append(got, e)
		}
		mt, ok := w.minTime()
		if !ok {
			break
		}
		end = width*math.Floor(mt/width) + width
	}
	want := []uint64{4, 1, 2, 0, 3} // by (t, seq)
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.seq != want[i] {
			t.Fatalf("drain order %d: seq %d, want %d (events %+v)", i, e.seq, want[i], got)
		}
	}
}

// TestSchedulersBitIdentical is the engine-level acceptance check for the
// timing-wheel rewrite: for fixed (Seed, Shards), a run scheduled by
// hierarchical timing wheels must be bit-identical to the binary-heap
// reference — same buckets, counters, hop sums, online fractions and
// event totals — across every built-in scenario, with maintenance on and
// a lossy empirical transport so all event kinds and retry paths fire.
func TestSchedulersBitIdentical(t *testing.T) {
	trace := testTracePath(t)
	for _, scenario := range ScenarioNames() {
		cfg := Config{
			Protocol:  "chord",
			Overlay:   OverlayConfig{Bits: 8},
			Scenario:  scenario,
			Params:    Params{FailFraction: 0.3, Rate: 800, ZipfS: 1.1, MeanOnline: 1, MeanOffline: 0.25},
			Transport: Lossy{Rate: 0.05, Inner: Empirical{Median: 0.06}},
			Duration:  5,
			Shards:    3,
			Seed:      99,
			Maintain:  true,
		}
		if scenario == "tracechurn" {
			cfg.Params.Lifetime = "trace:" + trace
		}
		a := runHeap(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: heap and wheel schedulers diverged:\nheap:  %+v\nwheel: %+v", scenario, a, b)
		}
	}
}
