package eventsim

// eventQueue is the per-shard scheduler behind the event engine. The
// contract all implementations share — and what keeps results
// bit-identical across them — is total (t, seq) order: popBefore emits
// pending events in exactly the order evLess defines, stopping at a
// (t, seq) bound — the epoch boundary (end, 0), or the shard's next
// retransmission deadline when that comes first, which is how runEpoch
// merges the pending ring into the queue's order without the queue ever
// holding a timer. Sequence numbers are assigned by the shard before push.
// Implementations must not let push *order* leak into pop order: at the
// start of every epoch a shard bulk-pushes the cross-shard batches it was
// handed at the barrier, source by source, in unsorted arrival-time order,
// and relies on (t, seq) alone to linearize them.
//
// The engine runs on the hierarchical timing wheel (timingwheel.go): O(1)
// schedule into chunked slot buckets, a wide first level so that messages
// are placed exactly once, and a linear-time
// ordering pass per drained slot. There is one queue and no knob; the
// binary heap it is differentially tested and benchmarked against lives in
// timingwheel_test.go and reaches the engine through runOverlay's
// queue-constructor parameter.
type eventQueue interface {
	// push schedules e (seq already assigned). Events are never scheduled
	// in the simulated past, but an event may land inside the window the
	// queue is currently draining; implementations must interleave it in
	// (t, seq) order.
	push(e ev)
	// popBefore removes and returns the least pending event ordered before
	// the bound (t, seq) — e.t < t, or e.t == t and e.seq < seq — reporting
	// false when none remains below it. The bound (end, 0) is the plain
	// epoch boundary: every event with t < end.
	popBefore(t float64, seq uint64) (ev, bool)
	// minTime returns the least pending event time, reporting false when
	// the queue is empty.
	minTime() (float64, bool)
	// size returns the number of pending events.
	size() int
}

// evLess is the engine's total event order: time, then push sequence.
func evLess(a, b ev) bool { return keyLess(a.t, a.seq, b.t, b.seq) }

// keyLess reports whether key (t, seq) precedes key (bt, bseq).
func keyLess(t float64, seq uint64, bt float64, bseq uint64) bool {
	if t != bt {
		return t < bt
	}
	return seq < bseq
}
