package eventsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rcm/fault"
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

func (q *heapQueue) popBefore(t float64, seq uint64) (ev, bool) {
	h := q.h
	if len(h) == 0 || !keyLess(h[0].t, h[0].seq, t, seq) {
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

// queuePair drives the wheel and the heap reference in lockstep and fails
// the test at the first divergence: in size, in minTime, in whether
// popBefore has an event, or in the event itself.
type queuePair struct {
	t     *testing.T
	name  string
	wheel *wheelQueue
	heap  *heapQueue
	seq   uint64
}

func newQueuePair(t *testing.T, name string, lookahead float64) *queuePair {
	return &queuePair{t: t, name: name, wheel: newWheelQueue(lookahead), heap: &heapQueue{}}
}

// push schedules an event at t on both queues under the next sequence
// number.
func (p *queuePair) push(t float64) {
	p.pushSeq(t, p.seq)
	p.seq++
}

// pushSeq schedules an event under a caller-chosen sequence number, for
// ties whose sequence order is not their push order.
func (p *queuePair) pushSeq(t float64, seq uint64) {
	e := ev{t: t, seq: seq, node: uint32(seq)}
	p.wheel.push(e)
	p.heap.push(e)
}

// minTime checks the queues agree on size and least pending time, and
// returns the latter.
func (p *queuePair) minTime() (float64, bool) {
	p.t.Helper()
	if p.wheel.size() != p.heap.size() {
		p.t.Fatalf("%s: size diverged: wheel %d heap %d", p.name, p.wheel.size(), p.heap.size())
	}
	wt, wok := p.wheel.minTime()
	ht, hok := p.heap.minTime()
	if wok != hok || (wok && wt != ht) {
		p.t.Fatalf("%s: minTime diverged: wheel (%v,%v) heap (%v,%v)", p.name, wt, wok, ht, hok)
	}
	return wt, wok
}

// drain pops both queues up to end, comparing every event, and returns
// how many it popped. onPop, when not nil, runs after each pop so the
// caller can schedule from inside the drain loop, as handlers do.
func (p *queuePair) drain(end float64, onPop func(ev)) int {
	p.t.Helper()
	return p.drainKey(end, 0, onPop)
}

// drainKey is drain up to the (t, seq) bound: the events ordered before
// it, as runEpoch pops them ahead of a due retransmission deadline.
func (p *queuePair) drainKey(end float64, seq uint64, onPop func(ev)) int {
	p.t.Helper()
	for n := 0; ; n++ {
		we, wok := p.wheel.popBefore(end, seq)
		he, hok := p.heap.popBefore(end, seq)
		if wok != hok {
			p.t.Fatalf("%s: popBefore(%v, %d) diverged: wheel ok=%v heap ok=%v", p.name, end, seq, wok, hok)
		}
		if !wok {
			return n
		}
		if we != he {
			p.t.Fatalf("%s: event order diverged at %v: wheel %+v heap %+v", p.name, end, we, he)
		}
		if onPop != nil {
			onPop(we)
		}
	}
}

// drainAll empties both queues epoch by epoch the way the engine does:
// one lookahead at a time, jumping to the next event's epoch when idle.
func (p *queuePair) drainAll(now, width float64, maxEpochs int, onPop func(ev)) {
	p.t.Helper()
	for epoch := 0; epoch < maxEpochs; epoch++ {
		mt, ok := p.minTime()
		if !ok {
			return
		}
		end := now + width
		if jump := width * math.Floor(mt/width); jump > end {
			end = jump + width
		}
		p.drain(end, onPop)
		now = end
	}
	if p.wheel.size() != 0 || p.heap.size() != 0 {
		p.t.Fatalf("%s: queues not drained: wheel %d heap %d", p.name, p.wheel.size(), p.heap.size())
	}
}

// TestWheelMatchesHeapRandomized drives the two eventQueue implementations
// with an identical randomized schedule-and-drain workload and checks they
// emit byte-for-byte the same event sequence — the differential unit test
// underneath the engine-level bit-identity guarantee. The sparse regime
// pushes bursts at wildly different horizons (same-window, next-window,
// deep level-2, beyond the wheel horizon) to force every wheel path:
// in-order slots, cascades, overflow re-placement and late insertion into
// the open window. The dense regime is the engine's: hundreds of events a
// slot, so the counting pass, many-chunk chains and chunk recycling carry
// the order, on the inputs that could break them.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	const width = 0.05
	// The wheel's horizon: beyond it events park in the overflow list.
	const horizon = width / wheelSub * float64(1<<wheelHorizonBits)
	for trial := uint64(0); trial < 20; trial++ {
		rng := overlay.NewRNG(trial + 1)
		p := newQueuePair(t, fmt.Sprintf("sparse trial %d", trial), width)
		// Pre-schedule a batch, like the scenario program does.
		for i := 0; i < 200; i++ {
			// Mix horizons: most nearby (level 0/1), some deep (level 2),
			// a few beyond the wheel horizon (overflow).
			u := rng.Float64()
			switch {
			case u < 0.6:
				p.push(rng.Float64() * 20)
			case u < 0.9:
				p.push(rng.Float64() * horizon * 0.9)
			default:
				p.push(horizon * (1 + rng.Float64()*3))
			}
		}
		p.drainAll(0, width, 5000, func(e ev) {
			// Sometimes reschedule from inside the drain loop, as
			// handlers do: strictly future, sometimes same epoch.
			if rng.Bernoulli(0.3) && p.seq < 2000 {
				p.push(e.t + width*(0.5+rng.Float64()*40))
			}
		})
	}

	const slot = width / wheelSub
	for trial, perLookahead := range []int{10_000, 100_000} {
		rng := overlay.NewRNG(uint64(trial) + 100)
		p := newQueuePair(t, fmt.Sprintf("dense %d/lookahead", perLookahead), width)
		// Times the slot arithmetic has to get exactly right: zero, and
		// slot, level-0-window, level-1-window and horizon boundaries with
		// their floating-point neighbours on either side.
		p.push(0)
		p.push(0)
		for _, s := range []uint64{1, 2, wheelSub, wheelSpan0, wheelSpan0 + 1, 2 * wheelSpan0, wheelSpan0 << wheelBitsUp, 1 << wheelHorizonBits} {
			b := float64(s) * slot
			for _, bt := range []float64{math.Nextafter(b, 0), b, b, math.Nextafter(b, math.Inf(1))} {
				p.push(bt)
			}
		}
		// Bursts of exactly equal times inside dense slots, pushed under
		// descending sequence numbers between other pushes, so neither the
		// position in the slot nor the chain order says anything about
		// their final order; half of each burst is pushed now, from far
		// away, and half from inside the drain loop.
		bursts := []float64{3.25 * width, 9.5*width + slot/3, 20 * width}
		burstSeq := uint64(1 << 40)
		pushBurst := func(bt float64) {
			for i := 0; i < 300; i++ {
				burstSeq--
				p.pushSeq(bt, burstSeq)
				p.push(bt + (rng.Float64()-0.5)*slot)
			}
		}
		for _, bt := range bursts {
			pushBurst(bt)
		}
		// The steady load: every lookahead of the first 24 (three level-0
		// windows) holds perLookahead uniformly spread events, a third of
		// them pre-scheduled, the rest pushed a lookahead or three ahead
		// from inside the drain loop, like messages and timers.
		const lookaheads = 24
		for i := 0; i < perLookahead*lookaheads/3; i++ {
			p.push(rng.Float64() * lookaheads * width)
		}
		budget := perLookahead * lookaheads * 2 / 3
		nextBurst := 0
		p.drainAll(0, width, 1<<20, func(e ev) {
			if nextBurst < len(bursts) && e.t > bursts[nextBurst]-2*width {
				pushBurst(bursts[nextBurst])
				nextBurst++
			}
			if e.t > lookaheads*width || budget <= 0 {
				return
			}
			switch u := rng.Float64(); {
			case u < 0.02:
				// Into the slot being drained: the same instant, and just after.
				p.push(e.t)
				p.push(e.t + rng.Float64()*slot/4)
				budget -= 2
			case u < 0.6:
				p.push(e.t + width*(1+rng.Float64()))
				budget--
			case u < 0.9:
				p.push(e.t + width*(3+rng.Float64()))
				budget--
			}
		})
		if nextBurst != len(bursts) {
			t.Fatalf("%s: only %d of %d bursts were refilled from the drain loop", p.name, nextBurst, len(bursts))
		}

		// Drain/refill below the peak the store has already grown to: every
		// cycle must run entirely on recycled chunks.
		chunks := p.wheel.store.size
		now := 7000.0 // past everything scheduled above
		for cycle := 0; cycle < 3; cycle++ {
			for i := 0; i < 2*perLookahead; i++ {
				p.push(now + rng.Float64()*4*width)
			}
			p.drainAll(now, width, 1<<10, nil)
			now += 5 * width
		}
		if got := p.wheel.store.size; got != chunks {
			t.Fatalf("%s: refilling an empty wheel grew the chunk store from %d to %d chunks: chunks are not recycled", p.name, chunks, got)
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
	e, ok := w.popBefore(1, 0)
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
		e, ok := w.popBefore(1, 0)
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

// TestWheelSeqBound covers popBefore's (t, seq) bound, the way runEpoch
// uses it to stop the queue at a due retransmission deadline: the bound
// can fall inside a group of equal times, on a slot not yet opened whose
// least time equals the bound's, or between slots, and each pop must emit
// exactly the events ordered before it, as the heap reference does.
func TestWheelSeqBound(t *testing.T) {
	p := newQueuePair(t, "seq bound", 32) // slot width 0.25
	for _, tt := range []float64{0.5, 0.5, 0.5, 1.5, 1.5, 2.75, 40} {
		p.push(tt)
	}
	for _, b := range []struct {
		t    float64
		seq  uint64
		pops int
	}{
		{0.5, 0, 0},  // the bound's time is the slot's least: nothing before it
		{0.5, 2, 2},  // inside the equal-time group
		{0.5, 2, 0},  // the same bound again
		{1.5, 4, 2},  // across the rest of the group and into the next slot's
		{2.75, 5, 1}, // the next slot's remainder, then a slot held back whole
		{2.75, 6, 1},
		{40, 6, 0}, // an earlier sequence number at a later time
	} {
		if n := p.drainKey(b.t, b.seq, nil); n != b.pops {
			t.Fatalf("popBefore(%v, %d) emitted %d events, want %d", b.t, b.seq, n, b.pops)
		}
	}
	if n := p.drain(math.Inf(1), nil); n != 1 {
		t.Fatalf("final drain emitted %d events, want 1", n)
	}
}

// TestWheelOverflowCascades exercises the beyond-horizon path: events past
// the top level's span must park in overflow and still come out in exact
// order when the cursor gets there.
func TestWheelOverflowCascades(t *testing.T) {
	const width = 1.0
	w := newWheelQueue(width)
	horizon := width / wheelSub * float64(1<<wheelHorizonBits)
	times := []float64{horizon * 2.5, 3, horizon + 7, horizon * 2.5, 0.5}
	for i, tt := range times {
		w.push(ev{t: tt, seq: uint64(i)})
	}
	if w.slots[overflowSlot].head == nilChunk {
		t.Fatal("no events parked in overflow despite beyond-horizon times")
	}
	var got []ev
	end := width
	for w.size() > 0 {
		for {
			e, ok := w.popBefore(end, 0)
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

// TestChunkStoreAddressing walks the store through its doubling slabs into
// the fixed-size ones: every index must name its own chunk, and returned
// chunks must come back before the store grows again.
func TestChunkStoreAddressing(t *testing.T) {
	s := chunkStore{free: nilChunk}
	const n = 3<<slabMaxBits + 5
	for i := int32(0); i < n; i++ {
		c, ch := s.get()
		if c != i || ch != s.at(c) || ch.n != 0 || ch.next != nilChunk {
			t.Fatalf("get #%d = chunk %d (%+v at %p, at(%d) = %p)", i, c, *ch, ch, c, s.at(c))
		}
		ch.n = i
	}
	for i := int32(0); i < n; i++ {
		if got := s.at(i).n; got != i {
			t.Fatalf("chunk %d holds the mark of chunk %d", i, got)
		}
	}
	size := s.size
	for i := int32(0); i < n; i += 7 {
		s.put(i)
	}
	for i := int32(0); i < n; i += 7 {
		if _, ch := s.get(); ch.n != 0 || ch.next != nilChunk {
			t.Fatalf("recycled chunk not reset: %+v", *ch)
		}
	}
	if s.size != size || s.used != n {
		t.Fatalf("recycling grew the store: size %d -> %d, used %d -> %d", size, s.size, n, s.used)
	}
}

// TestWheelIdleSkip pins the cost of an idle stretch: with events 2^31
// slots apart — the far ones beyond the horizon, in overflow — both the
// engine's jump (minTime, then popBefore at the next event's epoch) and a
// bare popBefore across the whole gap must reach the next event by hopping
// from occupied slot to occupied slot. A wheel that opens every empty
// level-0 slot on the way needs some 10^9 loads per gap and does not finish
// inside the test timeout.
func TestWheelIdleSkip(t *testing.T) {
	const width = 1.0
	far := float64(uint64(1)<<31+12345) * width / wheelSub
	for _, jump := range []bool{true, false} {
		p := newQueuePair(t, fmt.Sprintf("idle skip (jump=%v)", jump), width)
		for _, tt := range []float64{far, 0.25, far + 3*width, 2 * far, 0.25, far} {
			p.push(tt)
		}
		if p.wheel.slots[overflowSlot].head == nilChunk {
			t.Fatal("no events parked in overflow despite beyond-horizon times")
		}
		if jump {
			p.drainAll(0, width, 10, nil)
		} else if n := p.drain(3*far, nil); n != 6 {
			t.Fatalf("%s: one popBefore sweep across the gaps drained %d of 6 events", p.name, n)
		}
		if _, pending := p.minTime(); pending {
			t.Fatalf("%s: %d events left", p.name, p.wheel.size())
		}
	}
}

// TestWheelSteadyStateAllocs: once the chunk store, the drain buffers and
// the counting-pass scratch have grown to a workload's peak, scheduling and
// draining it again allocates nothing.
func TestWheelSteadyStateAllocs(t *testing.T) {
	const width = 0.05
	rng := overlay.NewRNG(1)
	offsets := make([]float64, 20000) // ~50 a slot: the counting pass runs
	for i := range offsets {
		offsets[i] = width * (1 + 3*rng.Float64())
	}
	w := newWheelQueue(width)
	now, seq := 0.0, uint64(0)
	cycle := func() {
		for _, off := range offsets {
			w.push(ev{t: now + off, seq: seq})
			seq++
		}
		now += 4 * width
		for {
			if _, ok := w.popBefore(now, 0); !ok {
				break
			}
		}
		if w.size() != 0 {
			t.Fatalf("%d events left after a full drain", w.size())
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("warmed push/pop cycle allocates %v times, want 0", allocs)
	}
}

// TestWheelDrainFollowsTraffic: the drain buffer grows to hold a burst —
// every event of a slot at one instant, as a massfail instant puts a
// shard's failures — and shrinks again once ordinary slots follow, rather
// than keeping the burst's size for the run. The order stays the heap's.
func TestWheelDrainFollowsTraffic(t *testing.T) {
	const width, burst = 0.05, 10000
	p := newQueuePair(t, "burst", width)
	for i := 0; i < burst; i++ {
		p.push(width)
	}
	// Ordinary traffic after the burst: about ten events a slot over the
	// next lookahead.
	rng := overlay.NewRNG(1)
	for i := 0; i < 10*wheelSub; i++ {
		p.push(width * (1 + rng.Float64()))
	}
	peak, last := 0, 0
	p.drainAll(0, width, 10, func(ev) {
		last = cap(p.wheel.drain)
		peak = max(peak, last)
	})
	if peak < burst {
		t.Fatalf("the burst slot drained through a buffer of %d events, want ≥ %d", peak, burst)
	}
	if last > 8*drainMin {
		t.Fatalf("drain buffer still holds %d events after the ordinary slots, want ≤ %d", last, 8*drainMin)
	}
}

// TestSchedulersBitIdentical is the engine-level acceptance check for the
// timing-wheel rewrite: for fixed (Seed, Shards), a run scheduled by
// hierarchical timing wheels must be bit-identical to the binary-heap
// reference — same buckets, counters, hop sums, online fractions and
// event totals — across every built-in scenario, with maintenance on and
// an empirical transport under a 5% corrupt plan, so all event kinds and
// retry paths fire.
func TestSchedulersBitIdentical(t *testing.T) {
	trace := testTracePath(t)
	for _, scenario := range ScenarioNames() {
		cfg := Config{
			Protocol:  "chord",
			Overlay:   OverlayConfig{Bits: 8},
			Scenario:  scenario,
			Params:    Params{FailFraction: 0.3, Rate: 800, ZipfS: 1.1, MeanOnline: 1, MeanOffline: 0.25},
			Transport: Empirical{Median: 0.06},
			Fault:     fault.Plan{Corrupt: 0.05},
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
