package eventsim

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Hierarchical timing-wheel geometry. A level-0 slot is 1/wheelSub of an
// engine lookahead (epoch), so within an epoch events spread across
// wheelSub slots and ordering becomes radix bucketing plus a linear
// touch-up per slot (see load) instead of the heap's O(log n)
// comparisons per event against the whole pending set.
//
// Level 0 is wide — wheelSpan0 slots, eight lookaheads — because almost
// everything the engine schedules is near: a message lands one lookahead
// ahead and a default retransmission timer three, so both reach their
// final slot on the first placement and are never touched again until
// drained. Only far timers (stabilization, pre-scheduled lifecycles and
// lookups) park in the upper levels, wheelSpanUp slots each, a level-k
// slot spanning a whole level-(k−1) window; they are re-placed once per
// level as the cursor enters their slot's span. Events beyond the top
// level's horizon (2^wheelHorizonBits slots = 131072 lookaheads ≈ 1.8
// simulated hours at the default 50 ms) wait in an overflow chain.
//
// All slots live in one flat table — level 0 first, then the upper levels,
// then overflow — which is also their time order: every event in a level-k
// slot is later than every event at the levels below it, and overflow is
// later than all of them. The first set bit of the occupancy bitmap
// therefore names the slot holding the earliest pending event, whatever
// its level, which is what makes an idle stretch of any length one hop.
const (
	wheelSub         = 128
	wheelBits0       = 10 // level 0: 1024 slots
	wheelBitsUp      = 7  // levels 1..wheelLevels−1: 128 slots each
	wheelLevels      = 3
	wheelHorizonBits = wheelBits0 + (wheelLevels-1)*wheelBitsUp

	wheelSpan0   = 1 << wheelBits0
	wheelSpanUp  = 1 << wheelBitsUp
	overflowSlot = wheelSpan0 + (wheelLevels-1)*wheelSpanUp // flat index of the overflow chain
	wheelWords   = overflowSlot/64 + 1
)

// Slot storage. A slot is a chain of fixed-size event chunks: push writes
// the tail chunk (hot in cache while a slot is filling), load reads whole
// chunks sequentially, and emptied chunks go back on a free list, so no
// per-event cell is ever chased and no bucket is ever regrown. Nothing is
// reserved per slot but the 24-byte header below.
const chunkCap = 16

type evChunk struct {
	ev   [chunkCap]ev
	n    int32
	next int32 // next chunk of the slot's chain, or of the free list
}

const nilChunk = int32(-1)

// wheelSlot heads one slot's chunk chain. min is the least event time in
// the chain (+Inf when empty): it answers minTime without a scan and tells
// popBefore whether the slot holds anything below the epoch boundary. n
// counts the chain's events, so load can size its buffers up front.
type wheelSlot struct {
	min        float64
	head, tail int32
	n          int32
}

var emptySlot = wheelSlot{min: math.Inf(1), head: nilChunk, tail: nilChunk}

// chunkStore hands out event chunks by index from slabs it never moves or
// returns, which keeps the store pointer-free (nothing for the collector
// to scan) and chunk pointers stable. It grows to the peak pending count
// and is reused from then on, so steady-state scheduling allocates
// nothing. Each slab doubles the store until it holds 2^slabMaxBits
// chunks, and every later one adds that many: a small run costs tens of
// KiB, a large one a few dozen allocations, and the overshoot past the
// peak is bounded by one slab either way.
type chunkStore struct {
	slabs [][]evChunk
	size  int32 // chunks in slabs
	used  int32 // chunks ever handed out; the rest of the last slab is untouched
	free  int32 // head of the list of returned chunks
}

const (
	slabMinBits = 6  // first slab: 64 chunks, 1024 events
	slabMaxBits = 12 // steady slab: 4096 chunks, 2.5 MiB
	slabRamp    = slabMaxBits - slabMinBits
)

// at returns chunk c. Slab 0 holds chunks [0, 2^slabMinBits); slab j up
// to slabRamp doubles the store, holding [2^(slabMinBits+j-1),
// 2^(slabMinBits+j)); every later slab holds the next 2^slabMaxBits.
func (s *chunkStore) at(c int32) *evChunk {
	if c >= 1<<slabMaxBits {
		return &s.slabs[slabRamp+c>>slabMaxBits][c&(1<<slabMaxBits-1)]
	}
	j := bits.Len32(uint32(c) >> slabMinBits)
	return &s.slabs[j][c-(1<<(slabMinBits-1)<<j)&^(1<<slabMinBits-1)]
}

// get returns an empty chunk: a returned one if there is any, else the
// next untouched one, adding a slab when the last is used up.
func (s *chunkStore) get() (int32, *evChunk) {
	c := s.free
	if c != nilChunk {
		ch := s.at(c)
		s.free = ch.next
		ch.n, ch.next = 0, nilChunk
		return c, ch
	}
	if s.used == s.size {
		grow := max(s.size, 1<<slabMinBits)
		if grow > 1<<slabMaxBits {
			grow = 1 << slabMaxBits
		}
		s.slabs = append(s.slabs, make([]evChunk, grow))
		s.size += grow
	}
	c = s.used
	s.used++
	ch := s.at(c)
	ch.next = nilChunk
	return c, ch
}

// put returns chunk c to the free list and reports its successor in the
// chain it was part of.
func (s *chunkStore) put(c int32) int32 {
	ch := s.at(c)
	next := ch.next
	ch.next = s.free
	s.free = c
	return next
}

// Ordering a drained slot (see load): more than sortCutoff events take the
// counting pass first, over at most maxSortBuckets buckets.
const (
	sortCutoff     = 24
	maxSortBuckets = 1 << 12
)

// wheelQueue is the hierarchical timing-wheel eventQueue. Schedule is
// O(1): append the event to the tail chunk of the slot addressed by its
// absolute slot index. Exact (t, seq) order — the property that keeps
// wheel runs bit-identical to the binary-heap reference — is restored per
// slot as it is drained.
//
// Slot addressing is by bit-prefix: an event with absolute slot index s
// lives at the lowest level whose window s shares with the cursor, in the
// slot its bits at that level select. The invariant holds whenever the
// queue is at rest: the cursor cascades the slots it enters the moment it
// enters them (enterWindow), so no pending event ever sits above the level
// its prefix puts it at, and no occupied slot ever lies behind the cursor.
type wheelQueue struct {
	width float64 // slot width = lookahead / wheelSub
	cur   uint64  // absolute index of the next level-0 slot to drain
	n     int

	slots [overflowSlot + 1]wheelSlot
	occ   [wheelWords]uint64 // occupancy bitmap over slots
	store chunkStore

	// drain holds the events of the slot currently being emitted, sorted
	// by (t, seq); drainPos is the emission cursor. An event pushed behind
	// the cursor (the boundary slot of an epoch can be opened before the
	// epoch that fills it) is inserted in order.
	drain    []ev
	drainPos int

	counts []int32 // counting-pass bucket counters
}

// newWheelQueue returns a wheel for an engine whose conservative epochs
// are lookahead wide (the transport's minimum latency).
func newWheelQueue(lookahead float64) *wheelQueue {
	w := &wheelQueue{width: lookahead / wheelSub}
	// Room for the ramp and 2^16 chunks — a million pending events —
	// before the slab table itself has to move.
	w.store = chunkStore{slabs: make([][]evChunk, 0, slabRamp+1+16), free: nilChunk}
	for i := range w.slots {
		w.slots[i] = emptySlot
	}
	return w
}

func (w *wheelQueue) size() int { return w.n }

// slotOf is monotone in t, so slot order never contradicts time order: an
// event in an earlier slot is strictly earlier.
func (w *wheelQueue) slotOf(t float64) uint64 {
	if t <= 0 {
		return 0
	}
	return uint64(t / w.width)
}

// detach empties slot i and returns what it held.
func (w *wheelQueue) detach(i int) wheelSlot {
	sl := w.slots[i]
	w.slots[i] = emptySlot
	w.occ[i>>6] &^= 1 << (uint(i) & 63)
	return sl
}

func (w *wheelQueue) push(e ev) {
	w.place(e)
	w.n++
}

// place routes an event to its wheel position (or the open drain window).
func (w *wheelQueue) place(e ev) {
	s := w.slotOf(e.t)
	if s < w.cur {
		w.insertDrain(e)
		return
	}
	i := w.slotIndex(s)
	sl := &w.slots[i]
	var ch *evChunk
	if sl.tail != nilChunk {
		ch = w.store.at(sl.tail)
	}
	if ch == nil || ch.n == chunkCap {
		c, fresh := w.store.get()
		if ch == nil {
			sl.head = c
			w.occ[i>>6] |= 1 << (uint(i) & 63)
		} else {
			ch.next = c
		}
		sl.tail = c
		ch = fresh
	}
	ch.ev[ch.n] = e
	ch.n++
	sl.n++
	if e.t < sl.min {
		sl.min = e.t
	}
}

// slotIndex returns the flat index of the slot absolute index s >= cur
// routes to: the lowest level at which s and the cursor share a window.
func (w *wheelQueue) slotIndex(s uint64) int {
	d := s ^ w.cur
	if d < wheelSpan0 {
		return int(s & (wheelSpan0 - 1))
	}
	shift := uint(wheelBits0)
	for base := wheelSpan0; base < overflowSlot; base += wheelSpanUp {
		if d>>(shift+wheelBitsUp) == 0 {
			return base + int(s>>shift)&(wheelSpanUp-1)
		}
		shift += wheelBitsUp
	}
	return overflowSlot
}

// insertDrain interleaves a late arrival into the sorted open window,
// keeping (t, seq) order among the not-yet-emitted events.
func (w *wheelQueue) insertDrain(e ev) {
	i := w.drainPos + sort.Search(len(w.drain)-w.drainPos, func(i int) bool {
		return evLess(e, w.drain[w.drainPos+i])
	})
	w.drain = slices.Insert(w.drain, i, e)
}

func (w *wheelQueue) popBefore(end float64) (ev, bool) {
	for {
		if w.drainPos < len(w.drain) {
			e := w.drain[w.drainPos]
			if e.t >= end {
				return ev{}, false
			}
			w.drainPos++
			w.n--
			return e, true
		}
		// The first occupied slot holds the earliest pending event; if even
		// that is not due, nothing is, and the cursor stays where it is
		// rather than being walked to the boundary one empty slot at a time.
		i := w.first()
		if i < 0 || w.slots[i].min >= end {
			return ev{}, false
		}
		if i < wheelSpan0 {
			w.cur = w.cur&^(wheelSpan0-1) | uint64(i)
			w.load()
		} else {
			w.hop(i)
		}
	}
}

// first returns the flat index of the first occupied slot, -1 when the
// wheel is empty. Level-0 slots behind the cursor are never occupied, so
// the scan starts at the cursor's word.
func (w *wheelQueue) first() int {
	for wi := int(w.cur&(wheelSpan0-1)) >> 6; wi < wheelWords; wi++ {
		if b := w.occ[wi]; b != 0 {
			return wi<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// load opens the level-0 slot at the cursor for draining — its events
// gathered into drain and sorted by (t, seq) — and advances the cursor past
// it.
//
// A chain is in push order — under the engine's ever-increasing sequence
// numbers, seq order — so what is missing is the time order inside the
// slot. A slot is narrow, and on a dense one gathering the chunks through
// a stable counting pass over each event's position in the slot, about one
// bucket per event, leaves every event within a few places of its final
// one; the insertion pass then finishes in linear time. The position is
// only a monotone function of t and is trusted no further: the insertion
// pass compares (t, seq) itself, so the result is exact however the times
// are distributed — a burst of equal times merely shares a bucket and is
// ordered by the insertion pass alone, as every small slot is.
func (w *wheelQueue) load() {
	sl := w.detach(int(w.cur & (wheelSpan0 - 1)))
	n := int(sl.n)
	if cap(w.drain) < n {
		w.drain = make([]ev, max(2*n, 4*chunkCap))
	}
	d := w.drain[:n]
	w.drain, w.drainPos = d, 0
	if n <= sortCutoff {
		at := 0
		for c := sl.head; c != nilChunk; c = w.store.put(c) {
			ch := w.store.at(c)
			at += copy(d[at:], ch.ev[:ch.n])
		}
	} else {
		w.gather(sl.head, d)
	}
	for i := 1; i < n; i++ {
		if !evLess(d[i], d[i-1]) {
			continue
		}
		e := d[i]
		j := i
		for ; j > 0 && evLess(e, d[j-1]); j-- {
			d[j] = d[j-1]
		}
		d[j] = e
	}
	w.cur++
	if w.cur&(wheelSpan0-1) == 0 {
		w.enterWindow()
	}
}

// gather moves the chain at head — the slot at the cursor, len(d) events —
// into d in bucket order: bucket k holds the events whose position in the
// slot falls in its k-th part, in chain order.
func (w *wheelQueue) gather(head int32, d []ev) {
	nb := 1 << bits.Len(uint(len(d)-1))
	if nb > maxSortBuckets {
		nb = maxSortBuckets
	}
	if w.counts == nil {
		w.counts = make([]int32, maxSortBuckets)
	}
	counts := w.counts[:nb]
	clear(counts)
	base, scale := float64(w.cur)*w.width, float64(nb)/w.width
	// Truncation and clamping keep the bucket monotone in t even where
	// rounding puts t a hair outside [base, base+width).
	bucket := func(t float64) int {
		k := int((t - base) * scale)
		if k < 0 {
			return 0
		}
		if k >= nb {
			return nb - 1
		}
		return k
	}
	for c := head; c != nilChunk; {
		ch := w.store.at(c)
		for i := range ch.ev[:ch.n] {
			counts[bucket(ch.ev[i].t)]++
		}
		c = ch.next
	}
	at := int32(0)
	for k, c := range counts {
		counts[k] = at
		at += c
	}
	for c := head; c != nilChunk; c = w.store.put(c) {
		ch := w.store.at(c)
		for i := range ch.ev[:ch.n] {
			k := bucket(ch.ev[i].t)
			d[counts[k]] = ch.ev[i]
			counts[k]++
		}
	}
}

// hop moves the cursor, across a stretch in which nothing is pending, to
// the start of the span of upper-level (or overflow) slot i, and cascades
// the slot.
func (w *wheelQueue) hop(i int) {
	if i == overflowSlot {
		w.cur = w.slotOf(w.slots[i].min) &^ (1<<wheelHorizonBits - 1)
	} else {
		lvl := uint(i-wheelSpan0) / wheelSpanUp
		shift := wheelBits0 + lvl*wheelBitsUp
		w.cur = w.cur&^(1<<(shift+wheelBitsUp)-1) | uint64((i-wheelSpan0)&(wheelSpanUp-1))<<shift
	}
	w.enterWindow()
}

// enterWindow restores the addressing invariant after the cursor has
// landed on a level-0 window boundary: every upper-level slot whose span
// starts exactly here — and the overflow chain, on a horizon boundary — is
// cascaded, so its events sit at the levels the new cursor puts them at
// before anything else is pushed or drained.
func (w *wheelQueue) enterWindow() {
	shift := uint(wheelBits0)
	for base := wheelSpan0; w.cur&(1<<shift-1) == 0; base += wheelSpanUp {
		if base == overflowSlot {
			w.cascade(overflowSlot)
			return
		}
		w.cascade(base + int(w.cur>>shift)&(wheelSpanUp-1))
		shift += wheelBitsUp
	}
}

// cascade re-places every event of slot i. The slot's span starts at the
// cursor, so each event lands at a lower level — except overflow events
// still beyond the horizon, which start a new overflow chain.
func (w *wheelQueue) cascade(i int) {
	for c := w.detach(i).head; c != nilChunk; c = w.store.put(c) {
		ch := w.store.at(c)
		for _, e := range ch.ev[:ch.n] {
			w.place(e)
		}
	}
}

func (w *wheelQueue) minTime() (float64, bool) {
	if w.drainPos < len(w.drain) {
		return w.drain[w.drainPos].t, true
	}
	if i := w.first(); i >= 0 {
		return w.slots[i].min, true
	}
	return 0, false
}
