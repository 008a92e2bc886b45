package eventsim

import (
	"math"
	"runtime"

	"rcm/fault"
	"rcm/internal/registry"
	"rcm/obs"
	"rcm/overlay"
)

// Event kinds, in deterministic tie-break-irrelevant order (ordering
// between same-time events is fixed by push sequence, not kind).
// Retransmission timeouts and acknowledgements are not events: a timeout
// is the deadline of its attempt's record in the sender's pending ring,
// and an acknowledgement is a write to that record (see pendingRing).
const (
	evStart uint8 = iota + 1 // a scheduled lookup begins at node
	evReq                    // a lookup request arrives at node
	evDown                   // scenario: node goes offline
	evUp                     // scenario: node comes online
	evStab                   // periodic stabilization timer at node
	evRetry                  // a replicated lookup fails over to its next owner at the source
	evDup                    // the later copy of a duplicated request arrives (fault injection)
)

// ev is the uniform event record, used both in per-shard queues and in
// cross-shard delivery buffers. Field meaning by kind:
//
//	evStart:   node=src, lk=lookup
//	evReq:     node=receiver, lk=lookup, a=attempt id, b=sender, hops=count so far
//	evRetry:   node=src, lk=lookup, ri=next owner, prior=hops already spent
//	evDown/evUp/evStab/evDup: node
//
// The lookup's mutable progress (its hop count, and under replication its
// current owner index, start-time eligibility mask and hops spent by
// earlier attempts) rides in the event rather than in a shared per-lookup
// record: ownership of a lookup passes from shard to shard with the
// message, and keeping the travelling state inside the message itself is
// what lets adjacent lookups owned by different shards share cache lines
// without write contention. All of it packs into alignment padding, so
// the record stays 40 bytes.
type ev struct {
	t     float64
	seq   uint64
	kind  uint8
	hops  uint16
	node  uint32
	lk    uint32
	a, b  uint32
	ri    uint8  // replica index of the owner this attempt targets
	mask  uint8  // owner-eligibility bitmask frozen at lookup start (k > 1)
	prior uint16 // hops spent by earlier failed attempts (replication failover)
}

// pendingHop is a forward attempt awaiting acknowledgement at the
// sender: one record of the shard's pending ring. (t, seq) is the
// attempt's retransmission deadline and its place in the shard's total
// event order, seq drawn from the shard's counter like a push's. next
// stashes the candidate chosen when the attempt was first sent, so a
// retransmission to the same candidate re-sends directly instead of
// re-running the Forwarder's candidate enumeration. live distinguishes
// an outstanding attempt from one already acknowledged: the record
// leaves the ring only when its deadline comes due, whether or not it
// was acknowledged (the RTO validation guarantees the ack, if any, lands
// first), which is what makes bare attempt ids safe to carry in requests
// and acknowledgements with no generation tag.
type pendingHop struct {
	t     float64 // retransmission deadline: sent at t − RTO
	seq   uint64  // the deadline's tie-break in the shard's (t, seq) order
	lk    uint32
	node  uint32 // forwarding node
	next  uint32 // chosen next hop, reused verbatim on retransmission
	cand  uint16 // candidate index being tried
	hops  uint16 // the lookup's hop count when this attempt was sent
	try   uint8  // retransmission count for this candidate
	live  bool   // false once acknowledged; the record awaits its deadline
	ri    uint8  // replica index of the owner this attempt targets
	mask  uint8  // owner-eligibility bitmask frozen at lookup start
	prior uint16 // hops spent by earlier failed attempts
}

// pendingRing holds a shard's in-flight forward attempts in arming order,
// which is also deadline order: the RTO is one constant per run and a
// shard arms attempts in non-decreasing event time, so the attempts time
// out first in, first out, and the ring's head is always the next
// timeout. Attempt ids are a monotone uint32 — head is the oldest
// attempt's id, tail the next one's — and an id's record lives at
// id & (len(buf)−1); since len(buf) is a power of two that divides 2^32,
// the mapping stays consistent when the counter wraps. Growth re-lays
// the live [head, tail) range at each id's slot under the new mask, so
// an id already carried in a request or an acknowledgement still names
// its own record. The ring grows once to the peak in-flight count and
// steady-state forwarding allocates nothing.
type pendingRing struct {
	buf        []pendingHop
	head, tail uint32
}

func (r *pendingRing) size() int { return int(r.tail - r.head) }

// at returns the record of attempt id, which must be in flight.
func (r *pendingRing) at(id uint32) *pendingHop {
	return &r.buf[id&uint32(len(r.buf)-1)]
}

// front returns the oldest in-flight attempt; the ring must be non-empty.
func (r *pendingRing) front() *pendingHop { return r.at(r.head) }

// pop retires the oldest attempt.
func (r *pendingRing) pop() { r.head++ }

// push arms the next attempt and returns its id and its record, which
// stays valid until the ring is pushed again.
func (r *pendingRing) push() (uint32, *pendingHop) {
	if r.size() == len(r.buf) {
		r.grow()
	}
	id := r.tail
	r.tail++
	return id, r.at(id)
}

// grow doubles the ring, re-laying every in-flight record at its id's
// slot under the new mask.
func (r *pendingRing) grow() {
	buf := make([]pendingHop, max(2*len(r.buf), 64))
	mask := uint32(len(buf) - 1)
	for id := r.head; id != r.tail; id++ {
		buf[id&mask] = *r.at(id)
	}
	r.buf = buf
}

// bucketAcc is a shard-local metrics accumulator for one time bucket.
// The histograms ride here rather than in shared engine state for the
// same reason as the counters: each shard observes into its own copy
// with no synchronization, and the barrier-free epoch stays barrier
// free — the per-bucket copies merge once, after the run (obs.Merge is
// commutative, so the fold order cannot be observed in the result).
type bucketAcc struct {
	Bucket    // counters only; the run fills in the window and online fraction
	hops, lat obs.Histogram
}

// shard owns an interleaved slice of the population (node % shards): its
// nodes' online flags, routing-table rows, event queue, RNG, pending
// attempt ring and metric accumulators. Within an epoch a shard runs
// single-threaded; shards only exchange messages at epoch barriers. Every
// mutable field lives in the shard's own allocations (not interleaved
// global arrays), so two shards never write the same cache line.
type shard struct {
	id  int
	eng *engine

	q   eventQueue
	seq uint64
	rng *overlay.RNG

	// online is the authoritative per-node flag for this shard's nodes,
	// indexed by global node id; only entries with node % shards == id are
	// ever touched. Full-length per-shard arrays trade a little memory for
	// division-free indexing and the absence of cross-shard write sharing
	// the old interleaved global array suffered from.
	online []bool

	// started latches each own-source lookup's at-most-once start.
	started *overlay.Bitset

	// pending holds the in-flight forward attempts in deadline order,
	// addressed by the attempt id evReq carries. Its head is the shard's
	// next retransmission timeout, which runEpoch merges with the event
	// queue in (t, seq) order; an acknowledgement clears the record's live
	// flag in place. Neither reaches the event queue.
	pending pendingRing

	// outbox holds this epoch's cross-shard sends, indexed by destination
	// shard; inbox the previous epoch's arrivals, indexed by source shard,
	// which the shard pushes itself as the first act of its next epoch (the
	// barrier only swaps the slice headers). sentMin is the least arrival
	// time among this epoch's sends, +Inf when there were none: until the
	// destinations have pushed them, it is the only place the coordinator
	// can see that those messages exist.
	outbox  [][]ev
	inbox   [][]ev
	sentMin float64

	// ackOut holds the ids of attempts this shard acknowledged this epoch
	// on behalf of other shards, indexed by the sender's shard; ackIn the
	// previous epoch's, indexed by the acknowledging shard, which the
	// shard applies to its ring before anything else next epoch. They
	// change hands at the barrier like outbox and inbox.
	ackOut [][]uint32
	ackIn  [][]uint32

	toggles []int32 // node lifecycle deltas this epoch: +node+1 up, -(node+1) down

	acc     []bucketAcc
	candBuf []overlay.ID
	events  uint64

	// faults tallies this shard's injected faults (zero without a plan);
	// summed into Result.Faults after the run.
	faults fault.Counts

	// traces collects this shard's events for sampled lookups (empty
	// unless Config.Trace > 0); merged deterministically after the run.
	traces []traceRec

	// work releases the shard's persistent worker for one epoch (carrying
	// the epoch boundary); the worker reports back on the engine's shared
	// done channel. Nil when the engine runs shards inline.
	work chan float64
}

// engine is one run's state. See doc.go for the synchronization design.
type engine struct {
	cfg Config
	fwd registry.Forwarder
	mnt registry.Maintainer // nil when maintenance is off or unsupported

	n      int
	shards []*shard

	// snapshot is the epoch-stale global alive view (frozen during an
	// epoch, advanced at barriers) that maintenance and lookup-start
	// conditioning read. The authoritative per-node flags live in the
	// owner shards' online arrays.
	snapshot    *overlay.Bitset
	onlineCount int

	// lookups is the program's workload (Schedule.Lookups), indexed by
	// lookup id. It is read-only for the whole run, so every shard reads
	// it freely — read-shared cache lines are never invalidated. The
	// mutable part of a lookup is split off: its hop count travels inside
	// the evReq events (see ev), and its started-at-most-once latch lives
	// in the source shard's own bitset.
	lookups []Lookup

	// k is the effective replication factor (1 = off) and repl the
	// precomputed placement table: repl[root*k+i] is the i-th owner of
	// the key rooted at root (root itself first). Built once before the
	// clock starts and read-only for the whole run, like lookups, so every
	// shard reads it freely. Empty when k == 1 — the unreplicated path
	// never touches it.
	k    int
	repl []overlay.ID

	width      float64 // bucket width
	delta      float64 // epoch length = transport lookahead
	rto        float64
	maxHops    int
	onlineFrac []float64
	nextBucket int

	trace int // sample every trace-th lookup's hop trace (0 = off)

	// inj is the bound fault plan when Config.Transport is a Faulty
	// (nil otherwise — the no-plan hot path draws no extra coins and is
	// bit-identical to builds without fault injection). innerMax caches
	// the unwrapped transport's MaxLatency, the bound reorder holds a
	// request back by.
	inj      *fault.Injector
	plan     fault.Plan // inj.Plan(), hoisted off the dispatch hot path
	innerMax float64
}

// traced reports whether lookup lk's path is being recorded. The
// predicate depends only on the schedule index, so the sampled set is
// identical across (Seed, Shards).
func (e *engine) traced(lk uint32) bool {
	return e.trace > 0 && int(lk)%e.trace == 0
}

func (e *engine) shardOf(node uint32) int { return int(node) % len(e.shards) }

func (e *engine) bucketOf(t float64) int32 {
	b := int32(t / e.width)
	if b < 0 {
		b = 0
	}
	if b >= int32(e.cfg.Buckets) {
		b = int32(e.cfg.Buckets) - 1
	}
	return b
}

// push assigns the event its shard-local sequence number — the tie-break
// half of the engine's total (t, seq) event order — and hands it to the
// shard's event queue (see queue.go).
func (sh *shard) push(e ev) {
	e.seq = sh.seq
	sh.seq++
	sh.q.push(e)
}

// send schedules an event at another (or the same) node, through the
// outbox when the destination lives on a different shard. Cross-shard
// events must carry t at least one lookahead ahead — guaranteed because
// every cross-shard event is a message with transport latency >= delta.
func (sh *shard) send(e ev) {
	ds := sh.eng.shardOf(e.node)
	if ds == sh.id {
		sh.push(e)
		return
	}
	sh.outbox[ds] = append(sh.outbox[ds], e)
	if e.t < sh.sentMin {
		sh.sentMin = e.t
	}
}

// sampleLatency draws a latency ignoring the delivery verdict — the path
// failover notices take (modeled reliable like acknowledgements; see
// doc.go).
func (e *engine) sampleLatency(rng *overlay.RNG) float64 {
	lat, _ := e.cfg.Transport.Sample(rng)
	if lat < e.delta {
		lat = e.delta
	}
	return lat
}

// worker is the body of a shard's persistent goroutine: woken once per
// epoch with the epoch boundary, it drains the local queue and reports
// completion. The channel pair is the engine's reusable barrier — the
// send into work and the receive from done are the only synchronization
// the hot loop pays, replacing a goroutine spawn and WaitGroup per shard
// per epoch.
func (sh *shard) worker(done chan<- struct{}) {
	for end := range sh.work {
		sh.runEpoch(end)
		done <- struct{}{}
	}
}

// runEpoch applies the acknowledgements and delivers the messages the
// other shards sent this one during the previous epoch, then processes
// every local event and retransmission timeout with t < end, the two
// merged in (t, seq) order.
func (sh *shard) runEpoch(end float64) {
	for src, acks := range sh.ackIn {
		for _, id := range acks {
			sh.pending.at(id).live = false
		}
		sh.events += uint64(len(acks))
		sh.ackIn[src] = acks[:0]
	}
	for src, in := range sh.inbox {
		for _, m := range in {
			sh.push(m)
		}
		sh.inbox[src] = in[:0]
	}
	sh.sentMin = math.Inf(1)
	for {
		// A due timeout bounds the queue's pop at its own (t, seq): the
		// queue yields only the events ordered before it, and once none is
		// left the timeout is the least pending item.
		bt, bseq, due := end, uint64(0), false
		if sh.pending.size() > 0 {
			if pd := sh.pending.front(); pd.t < end {
				bt, bseq, due = pd.t, pd.seq, true
			}
		}
		e, ok := sh.q.popBefore(bt, bseq)
		if !ok {
			if !due {
				break
			}
			sh.events++
			sh.handleTimeout()
			continue
		}
		sh.events++
		switch e.kind {
		case evStart:
			sh.handleStart(e)
		case evReq:
			sh.handleReq(e)
		case evRetry:
			sh.handleRetry(e)
		case evDown:
			sh.handleToggle(e.t, e.node, false)
		case evUp:
			sh.handleToggle(e.t, e.node, true)
		case evStab:
			sh.handleStab(e)
		case evDup:
			sh.handleDup(e)
		}
	}
}

func (sh *shard) handleStart(e ev) {
	eng := sh.eng
	if sh.started.Get(int(e.lk)) {
		return // defensive: a lookup starts at most once
	}
	sh.started.Set(int(e.lk))
	l := &eng.lookups[e.lk]
	// Condition on surviving endpoints, as the static model does: the
	// source authoritatively (it is local), the destination through the
	// epoch snapshot (the freshest view any node could have of a remote).
	// Under replication the destination condition generalizes: the lookup
	// is viable while ANY owner of the key survives in the snapshot, and
	// the surviving set is frozen into a bitmask the lookup carries — the
	// failover order is decided at start time, exactly the information a
	// live client holds when it issues the request.
	viable := eng.snapshot.Get(l.Dst)
	ri, mask := uint8(0), uint8(1)
	if eng.k > 1 {
		mask = 0
		for i := 0; i < eng.k; i++ {
			if eng.snapshot.Get(int(eng.repl[l.Dst*eng.k+i])) {
				mask |= 1 << uint(i)
			}
		}
		viable = mask != 0
		for ri+1 < uint8(eng.k) && mask&(1<<ri) == 0 {
			ri++
		}
	}
	if !sh.online[l.Src] || !viable {
		sh.acc[eng.bucketOf(l.T)].Skipped++
		if eng.traced(e.lk) {
			sh.recordTrace(e.lk, TraceEvent{T: e.t, Kind: TraceSkip, Node: l.Src})
		}
		return
	}
	sh.acc[eng.bucketOf(l.T)].Started++
	if eng.traced(e.lk) {
		sh.recordTrace(e.lk, TraceEvent{T: e.t, Kind: TraceStart, Node: l.Src})
	}
	sh.forward(e.t, e.lk, uint32(l.Src), 0, ri, mask, 0)
}

// owner returns the ri-th replica owner of the key rooted at root (the
// root itself when replication is off).
func (e *engine) owner(root int, ri uint8) uint32 {
	if e.k <= 1 {
		return uint32(root)
	}
	return uint32(e.repl[root*e.k+int(ri)])
}

// forward advances the lookup held at cur: complete it at the current
// target owner, or try the first next-hop candidate. hops counts this
// attempt's deliveries (the per-attempt budget a live request carries);
// prior accumulates the deliveries of earlier failed-over attempts, so
// the completed tally is the total work a live origin would observe.
func (sh *shard) forward(t float64, lk uint32, cur uint32, hops uint16, ri, mask uint8, prior uint16) {
	eng := sh.eng
	l := &eng.lookups[lk]
	if cur == eng.owner(l.Dst, ri) {
		acc := &sh.acc[eng.bucketOf(l.T)]
		total := hops + prior
		acc.Completed++
		acc.SumHops += float64(total)
		acc.SumLatency += t - l.T
		acc.hops.Observe(int64(total))
		acc.lat.Observe(latencyMicros(t - l.T))
		if eng.traced(lk) {
			sh.recordTrace(lk, TraceEvent{T: t, Kind: TraceDone, Node: int(cur), Hops: int(total)})
		}
		return
	}
	sh.attempt(t, lk, cur, 0, hops, ri, mask, prior)
}

// latencyMicros converts a simulated-time latency to the integer
// microseconds the latency histograms record. Round-to-nearest keeps
// the conversion exact for the transport library's millisecond-scale
// constants.
func latencyMicros(lat float64) int64 {
	return int64(math.Round(lat * 1e6))
}

// attempt tries candidate ci of cur's next-hop preference list: enumerate
// candidates, pick the ci-th, and dispatch. An exhausted candidate list
// fails the lookup — greedy forwarding with per-hop retries but no
// backtracking, matching the paper's assumption 3. Retransmissions to the
// same candidate do not come through here: they reuse the stashed hop in
// the pending slot (see handleTimeout) and skip the Forwarder entirely.
func (sh *shard) attempt(t float64, lk uint32, cur uint32, ci int, hops uint16, ri, mask uint8, prior uint16) {
	eng := sh.eng
	cands := eng.fwd.AppendCandidateHops(sh.candBuf[:0], overlay.ID(cur), overlay.ID(eng.owner(eng.lookups[lk].Dst, ri)))
	sh.candBuf = cands[:0]
	if ci >= len(cands) {
		sh.failAttempt(t, lk, cur, hops, ri, mask, prior)
		return
	}
	sh.dispatch(t, lk, cur, uint32(cands[ci]), ci, 0, hops, ri, mask, prior)
}

// failAttempt ends one owner-directed attempt. With replication and an
// eligible owner remaining in the start-time mask, the lookup fails over:
// a failure notice travels back to the source (one transport latency, so
// failover costs real time) and the source re-issues toward the next
// owner, carrying the failed attempt's hop bill in prior — exactly the
// retry a live client performs when an owner's route fails. Without
// replication, or with the mask exhausted, the lookup fails for good.
func (sh *shard) failAttempt(t float64, lk uint32, cur uint32, hops uint16, ri, mask uint8, prior uint16) {
	eng := sh.eng
	l := &eng.lookups[lk]
	if eng.k > 1 {
		for next := ri + 1; next < uint8(eng.k); next++ {
			if mask&(1<<next) == 0 {
				continue
			}
			if eng.traced(lk) {
				sh.recordTrace(lk, TraceEvent{T: t, Kind: TraceRetry, Node: int(cur), To: int(eng.owner(l.Dst, next)), Hops: int(hops + prior)})
			}
			sh.send(ev{t: t + eng.sampleLatency(sh.rng), kind: evRetry, node: uint32(l.Src), lk: lk, ri: next, mask: mask, prior: hops + prior})
			return
		}
	}
	sh.acc[eng.bucketOf(l.T)].Failed++
	if eng.traced(lk) {
		sh.recordTrace(lk, TraceEvent{T: t, Kind: TraceFail, Node: int(cur), Hops: int(hops + prior)})
	}
}

// handleRetry restarts a failed replicated lookup at its source, aimed at
// the next eligible owner. The source re-checks only its own liveness
// (authoritative, local); the owner eligibility was frozen at start time,
// like the k = 1 path's destination conditioning.
func (sh *shard) handleRetry(e ev) {
	eng := sh.eng
	l := &eng.lookups[e.lk]
	if !sh.online[l.Src] {
		sh.acc[eng.bucketOf(l.T)].Failed++
		if eng.traced(e.lk) {
			sh.recordTrace(e.lk, TraceEvent{T: e.t, Kind: TraceFail, Node: l.Src, Hops: int(e.prior)})
		}
		return
	}
	sh.forward(e.t, e.lk, uint32(l.Src), 0, e.ri, e.mask, e.prior)
}

// dispatch sends the request for an already-chosen next hop: charge the
// message, and record the attempt, with its retransmission deadline, at
// the tail of the pending ring.
func (sh *shard) dispatch(t float64, lk, cur, next uint32, ci, try int, hops uint16, ri, mask uint8, prior uint16) {
	eng := sh.eng
	sh.acc[eng.bucketOf(t)].LookupMessages++
	lat, delivered := eng.cfg.Transport.Sample(sh.rng)
	var dupLat float64
	dupDelivered := false
	if inj := eng.inj; inj != nil {
		// Fault clauses apply to the request only (acks stay pure, like the
		// lossy transport), in a fixed coin order — corrupt, reorder, dup —
		// so every shard's stream is deterministic; the partition check is
		// coin-free.
		pl := &eng.plan
		if pl.Corrupt > 0 && sh.rng.Bernoulli(pl.Corrupt) {
			// The receiver's wire codec rejects the mangled packet: a drop.
			if delivered {
				sh.faults.Corrupts++
			}
			delivered = false
		}
		if pl.Reorder > 0 && sh.rng.Bernoulli(pl.Reorder) {
			lat += sh.rng.Float64() * eng.innerMax
			if delivered {
				sh.faults.Reorders++
			}
		}
		if pl.Dup > 0 && sh.rng.Bernoulli(pl.Dup) {
			dupLat, dupDelivered = eng.cfg.Transport.Sample(sh.rng)
		}
		if (delivered || dupDelivered) && inj.CrossPartition(uint64(cur), uint64(next), t) {
			sh.faults.PartitionDrops++
			delivered, dupDelivered = false, false
		}
		if f := inj.DelayFactor(t); f > 1 {
			lat *= f
			dupLat *= f
		}
	}
	if lat < eng.delta {
		lat = eng.delta
	}
	id, pd := sh.pending.push()
	*pd = pendingHop{
		t:  t + eng.rto,
		lk: lk, node: cur, next: next,
		cand: uint16(ci), hops: hops, try: uint8(try), live: true,
		ri: ri, mask: mask, prior: prior,
	}
	if eng.traced(lk) {
		sh.recordTrace(lk, TraceEvent{T: t, Kind: TraceSend, Node: int(cur), To: int(next), Hops: int(hops + prior), Cand: ci, Try: try})
	}
	req := ev{t: t + lat, kind: evReq, node: next, lk: lk, a: id, b: cur, hops: hops, ri: ri, mask: mask, prior: prior}
	if dupDelivered {
		if dupLat < eng.delta {
			dupLat = eng.delta
		}
		sh.faults.Dups++
		if !delivered {
			// Only the duplicate survived: it carries the request.
			req.t = t + dupLat
			delivered = true
		} else {
			// Both copies arrive. The earlier one carries the request; the
			// later one is absorbed by the receiver's dedupe window (one
			// extra message, no second forwarding — see handleDup).
			first, second := lat, dupLat
			if second < first {
				first, second = second, first
			}
			req.t = t + first
			sh.send(ev{t: t + second, kind: evDup, node: next})
		}
	}
	if delivered {
		sh.send(req)
	}
	// The deadline is sequenced after the request and its duplicate.
	pd.seq = sh.seq
	sh.seq++
}

func (sh *shard) handleReq(e ev) {
	eng := sh.eng
	y := e.node
	if !sh.online[y] {
		return // dead receiver: the sender's timeout will fire
	}
	if eng.inj != nil && eng.inj.Stalled(uint64(y), e.t) {
		// Alive but unresponsive: no ack, no forwarding — the sender's
		// timeout fires exactly as if the request had been lost.
		sh.faults.StallDrops++
		return
	}
	// Acknowledge (reliable, latency-only) so the sender retires the
	// attempt, then keep forwarding — ownership of the lookup has just
	// transferred to this shard with the message. The ack's latency is
	// still drawn, as part of this shard's random stream, but the ack
	// itself is a write of the attempt's live flag: now for a sender on
	// this shard, first thing next epoch for one on another (doc.go,
	// Engine design, shows no deadline can tell the difference).
	sh.acc[eng.bucketOf(e.t)].LookupMessages++
	eng.cfg.Transport.Sample(sh.rng)
	if ds := eng.shardOf(e.b); ds == sh.id {
		sh.pending.at(e.a).live = false
		sh.events++
	} else {
		sh.ackOut[ds] = append(sh.ackOut[ds], e.a)
	}
	hops := e.hops + 1
	if eng.traced(e.lk) {
		sh.recordTrace(e.lk, TraceEvent{T: e.t, Kind: TraceHop, Node: int(y), Hops: int(hops + e.prior)})
	}
	if int(hops) > eng.maxHops {
		// The per-attempt hop budget ran out — a terminal failure without
		// replication, a failover with (a live re-issued request carries a
		// fresh budget).
		sh.failAttempt(e.t, e.lk, y, hops, e.ri, e.mask, e.prior)
		return
	}
	sh.forward(e.t, e.lk, y, hops, e.ri, e.mask, e.prior)
}

// handleDup absorbs the later copy of a duplicated request: an online,
// unstalled receiver re-acknowledges out of its dedupe window and drops
// the payload — one extra message charged, no second forwarding. This
// mirrors the live node's seen-map exactly, which is what keeps dup
// plans outcome-invariant (and so conformance-pinnable) over a lossless
// inner transport.
func (sh *shard) handleDup(e ev) {
	eng := sh.eng
	if !sh.online[e.node] {
		return
	}
	if eng.inj != nil && eng.inj.Stalled(uint64(e.node), e.t) {
		sh.faults.StallDrops++
		return
	}
	sh.acc[eng.bucketOf(e.t)].LookupMessages++
}

// handleTimeout retires the ring's head, whose deadline is the least
// pending item of the shard.
func (sh *shard) handleTimeout() {
	pd := *sh.pending.front()
	// The deadline is the attempt's last reference: retire the record
	// whether the attempt was acknowledged or is genuinely overdue.
	sh.pending.pop()
	if !pd.live {
		return // acknowledged in the meantime
	}
	eng := sh.eng
	t := pd.t
	sh.acc[eng.bucketOf(t)].Timeouts++
	if eng.traced(pd.lk) {
		sh.recordTrace(pd.lk, TraceEvent{T: t, Kind: TraceRTO, Node: int(pd.node), To: int(pd.next), Hops: int(pd.hops), Cand: int(pd.cand), Try: int(pd.try)})
	}
	// A pending timeout means the downstream hop did not accept (requests
	// that were acknowledged retire their attempt before the RTO). If the
	// holder itself died while waiting, the attempt dies with it — a dead
	// node must not keep retransmitting or routing — and replication
	// treats that like any other attempt failure: the origin's deadline
	// machinery re-issues toward the next owner.
	if !sh.online[pd.node] {
		sh.failAttempt(t, pd.lk, pd.node, pd.hops, pd.ri, pd.mask, pd.prior)
		return
	}
	// Retransmit to the same candidate first (a lost request must not skip
	// the best next hop) — re-sending the stashed hop directly, with no
	// second Forwarder call; fail over to the next candidate once
	// exhausted.
	if int(pd.try) < eng.cfg.Retransmits {
		sh.dispatch(t, pd.lk, pd.node, pd.next, int(pd.cand), int(pd.try)+1, pd.hops, pd.ri, pd.mask, pd.prior)
		return
	}
	sh.attempt(t, pd.lk, pd.node, int(pd.cand)+1, pd.hops, pd.ri, pd.mask, pd.prior)
}

func (sh *shard) handleToggle(t float64, node uint32, up bool) {
	eng := sh.eng
	if sh.online[node] == up {
		return // idempotent: overlapping scenario schedules are legal
	}
	sh.online[node] = up
	delta := int32(node) + 1
	if !up {
		delta = -delta
	}
	sh.toggles = append(sh.toggles, delta)
	if eng.k > 1 {
		// Churn-driven re-replication: the toggled node participates in k
		// replica groups (one as root, k−1 as a successor), and each
		// affected group restores its k-copy invariant with one transfer
		// coordinated across the survivors — k repair messages per
		// effective toggle, the repair-bandwidth bill replication adds on
		// top of routing-table maintenance.
		sh.acc[eng.bucketOf(t)].RepairMessages += eng.k
	}
	if up && eng.mnt != nil {
		cost := eng.mnt.Join(overlay.ID(node), eng.snapshot, sh.rng)
		sh.acc[eng.bucketOf(t)].MaintMessages += cost
	}
}

func (sh *shard) handleStab(e ev) {
	eng := sh.eng
	if sh.online[e.node] && eng.mnt != nil {
		cost := eng.mnt.Stabilize(overlay.ID(e.node), eng.snapshot, sh.rng)
		sh.acc[eng.bucketOf(e.t)].MaintMessages += cost
	}
	next := e.t + eng.cfg.StabilizeEvery
	if next <= eng.cfg.Duration {
		sh.push(ev{t: next, kind: evStab, node: e.node})
	}
}

// run executes the engine to completion: epochs of one lookahead each,
// with a barrier between epochs that applies lifecycle deltas to the
// alive snapshot, hands each shard's cross-shard sends to their
// destinations (which push them themselves, first thing next epoch), and
// samples per-bucket online fractions. With more than one
// shard and parallel hardware, each shard is drained by a persistent
// worker goroutine released and joined through a channel barrier; on a
// single shard, or when GOMAXPROCS is 1 and goroutines could only add
// scheduling overhead, the shards run inline. The two execution paths are
// bit-identical by construction — within an epoch shards touch disjoint
// mutable state, so the order (or concurrency) of their draining cannot
// be observed.
func (e *engine) run() {
	e.onlineFrac[0] = float64(e.onlineCount) / float64(e.n)
	e.nextBucket = 1

	//lint:allow detsource picks inline vs goroutine drain only; TestDeterministicAcrossGOMAXPROCS pins the two bit-identical
	parallel := len(e.shards) > 1 && runtime.GOMAXPROCS(0) > 1
	var done chan struct{}
	if parallel {
		done = make(chan struct{}, len(e.shards))
		for _, sh := range e.shards {
			sh.work = make(chan float64, 1)
			go sh.worker(done)
		}
		defer func() {
			for _, sh := range e.shards {
				close(sh.work)
			}
		}()
	}

	end := e.delta
	for {
		pendingWork := false
		for _, sh := range e.shards {
			if sh.q.size() > 0 || sh.pending.size() > 0 || sh.sentMin < math.Inf(1) {
				pendingWork = true
				break
			}
		}
		if !pendingWork {
			break
		}

		if parallel {
			for _, sh := range e.shards {
				sh.work <- end
			}
			for range e.shards {
				<-done
			}
		} else {
			for _, sh := range e.shards {
				sh.runEpoch(end)
			}
		}

		// Barrier: lifecycle deltas first (so the next epoch, deliveries
		// included, observes the post-toggle snapshot), then message hand-off.
		for _, sh := range e.shards {
			for _, d := range sh.toggles {
				if d > 0 {
					e.snapshot.Set(int(d - 1))
					e.onlineCount++
				} else {
					e.snapshot.Clear(int(-d - 1))
					e.onlineCount--
				}
			}
			sh.toggles = sh.toggles[:0]
		}
		// Hand cross-shard messages over: every (source, destination) pair
		// swaps its full outbox for the destination's drained inbox — slice
		// headers only — and each destination pushes its inbox itself, in
		// source-shard order, before it pops anything next epoch (runEpoch):
		// in parallel, and into the cache that will drain them. That is the
		// same pushes in the same order, with the same seq values, as pushing
		// them here, because nothing else touches a shard's queue or seq
		// counter between this barrier and its next runEpoch. And no sort is
		// needed for determinism:
		//
		// The queues' total order is (t, seq), with seq assigned at push.
		// Events with different arrival times are ordered by t no matter
		// which push order (and therefore which seq values) they got, so
		// seq assignment only decides ties. Pushing source 0's batch in
		// send order, then source 1's, and so on gives equal-t events the
		// tie order a stable sort of the concatenated batches by arrival
		// time would: send order within a source, source-shard order across
		// sources. Ties against events pushed in earlier or later epochs keep
		// their order too, because the seq counter is monotonic across the
		// whole run. Identical (t, seq)-relative order means identical pop
		// order, so results are bit-identical — enforced by the determinism
		// and scheduler-differential suites.
		for di, dst := range e.shards {
			for si, src := range e.shards {
				full, empty := src.outbox[di], dst.inbox[si]
				if cap(empty) < len(full) {
					// The pair's two buffers alternate; size this one to what
					// its twin just carried rather than let it regrow by appends.
					empty = make([]ev, 0, len(full))
				}
				src.outbox[di], dst.inbox[si] = empty, full
				src.ackOut[di], dst.ackIn[si] = dst.ackIn[si], src.ackOut[di]
			}
		}

		// Sample online fractions for every bucket boundary this epoch
		// crossed (the boundary value is the first barrier at/after it).
		for e.nextBucket < e.cfg.Buckets && end >= float64(e.nextBucket)*e.width {
			e.onlineFrac[e.nextBucket] = float64(e.onlineCount) / float64(e.n)
			e.nextBucket++
		}

		// Advance; skip idle stretches (all queue tops far in the future)
		// in one hop while staying on lookahead-aligned boundaries. A
		// message handed over above is in no queue yet: its sender's sentMin
		// stands in for it, so the skip lands where it would have had the
		// message been pushed already.
		minTop := math.Inf(1)
		for _, sh := range e.shards {
			if t, ok := sh.q.minTime(); ok && t < minTop {
				minTop = t
			}
			if sh.pending.size() > 0 {
				minTop = min(minTop, sh.pending.front().t)
			}
			if sh.sentMin < minTop {
				minTop = sh.sentMin
			}
		}
		next := end + e.delta
		if jump := e.delta * math.Floor(minTop/e.delta); jump > next {
			next = jump
		}
		end = next
	}
	// Buckets the run never reached keep the last sampled online fraction.
	for e.nextBucket < e.cfg.Buckets {
		e.onlineFrac[e.nextBucket] = float64(e.onlineCount) / float64(e.n)
		e.nextBucket++
	}
}
