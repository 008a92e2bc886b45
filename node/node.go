package node

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rcm"
	"rcm/node/internal/clock"
	"rcm/overlay"
	"rcm/replica"
)

// Config configures one live node.
type Config struct {
	// Protocol is the overlay the node routes on; it must implement the
	// rcm.Forwarder capability. Many nodes share one Protocol value: the
	// built-in overlays' routing tables are read-only under forwarding, and
	// maintenance (when used) confines writes to the maintained node's own
	// rows per the Maintainer contract.
	Protocol rcm.Protocol
	// ID is this node's identifier in the overlay's space.
	ID overlay.ID
	// Transport is the datagram substrate (ListenUDP or MemNetwork
	// endpoints).
	Transport Transport
	// AddrOf resolves an overlay identifier to a transport address — the
	// cluster directory (a peers file for rcmd daemons, the harness's
	// table for in-process clusters).
	AddrOf func(overlay.ID) string
	// Store is the key-value backend (default: NewMemStore()).
	Store Store
	// RTO is how long a forwarding node waits for a hop acknowledgement
	// before retransmitting; it must exceed the worst-case round trip
	// (default 50 ms).
	RTO time.Duration
	// Retransmits is how many times a timed-out attempt re-sends to the
	// same candidate before failing over to the next one (0 selects the
	// default 2, mirroring eventsim; negative disables retransmission).
	Retransmits int
	// Deadline is the per-request time-to-live carried in every message
	// and decremented by each holder's holding time (default 5 s).
	Deadline time.Duration
	// Replicas is the key replication factor k: Put writes every owner in
	// the key's replica set (placement per rcm/replica — the protocol's
	// Replicator opt-in, or successor placement) and Get fails over across
	// the set in placement order, treating NotFound like a routing failure
	// until the last owner has answered. 0 and 1 both mean single-owner
	// operation; every node of a cluster must agree on the value.
	Replicas int
}

func (cfg Config) withDefaults() Config {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	switch {
	case cfg.Retransmits == 0:
		cfg.Retransmits = 2
	case cfg.Retransmits < 0:
		cfg.Retransmits = 0
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Second
	}
	return cfg
}

// Result is the outcome of one request issued through a node.
type Result struct {
	// Status is the wire-level verdict.
	Status Status
	// Hops is the number of request deliveries the route took (0 when the
	// issuing node owns the destination).
	Hops int
	// Value is the fetched value (get only).
	Value []byte
	// Err is the local failure, if the request never produced a verdict
	// (node killed, response deadline lapsed).
	Err error
}

// OK reports whether the request reached its owner successfully.
func (r Result) OK() bool { return r.Err == nil && r.Status == StatusOK }

// pendingFwd is one in-flight forward attempt awaiting its hop
// acknowledgement — the live counterpart of eventsim's pending ring
// record, and like it a pooled record (reqtable.go).
type pendingFwd struct {
	id       uint32        // index in the forward pool
	msg      message       // the request as this holder forwards it: one hop's budget spent, Deadline set per attempt
	cands    []overlay.ID  // candidate next hops, best first, enumerated once
	ci       int           // current candidate index
	try      int           // retransmissions consumed for this candidate
	rto      clock.Handle  // this attempt's retransmission timeout in the node's timer queue
	deadline time.Duration // absolute per-message deadline at this holder
}

// originWait is one locally-originated request awaiting its verdict:
// the caller's channel plus what the origin needs to attribute the
// outcome (operation, issue time) when the response arrives, and the
// response-deadline guard in the node's timer queue, removed with
// whatever concludes the request first. It is a pooled record too.
type originWait struct {
	id    uint32 // index in the origin pool
	ch    chan Result
	op    Op
	reqID uint64
	start time.Duration
	guard clock.Handle
}

// Node is one live DHT node: an event loop owning all routing state, fed
// through one inbox by arriving datagrams, local callers and its timer
// wake-up. The public methods are safe for concurrent use.
type Node struct {
	cfg   Config
	fwd   rcm.Forwarder
	space overlay.Space
	tr    Transport
	store Store

	// clk is the clock of the node's network; sim is the same clock when
	// the network is virtual (NewSimNetwork), nil on the wall clock.
	clk clock.Clock
	sim *clock.Virtual

	in   *inbox
	wg   sync.WaitGroup
	once sync.Once

	reqSeq  atomic.Uint64
	downNow atomic.Bool // read by fast paths; written only by the loop

	// Loop-owned state (no locking: only the event loop touches it).
	// The rcm:loop-owned markers are enforced by rcmlint's loopowner
	// analyzer: any read or write outside code reachable from the
	// rcm:event-loop dispatch is a lint error, not a latent race.
	reqs   reqTable            // rcm:loop-owned — forward attempts, waiting origins and the dedupe window, one entry per request id
	timers clock.Queue[uint32] // rcm:loop-owned — record id<<1: a forward attempt's RTO; id<<1 | 1: an origin's response guard
	wake   clock.Timer         // rcm:loop-owned — the one clock timer, due at wakeAt; made on first use
	wakeAt time.Duration       // rcm:loop-owned — noWake while the wake is not armed
	now    time.Duration       // rcm:loop-owned — see clock
	encBuf []byte              // rcm:loop-owned
	stats  Metrics             // rcm:loop-owned — counters and histograms (see metrics.go)
}

// seenCap bounds the dedupe window.
const seenCap = 4096

// maxInFlight bounds the forward table: once this many relayed requests
// await hop acknowledgements, further requests for other owners are
// shed — dropped without an acknowledgement, so the upstream sender's
// RTO machinery routes around this node exactly as it would a lost
// request. Shedding is deterministic (a pure function of table
// occupancy), never applies to requests this node owns, and is counted
// in Metrics.Shed.
const maxInFlight = 4096

// noWake is wakeAt while the clock timer is not armed.
const noWake = time.Duration(math.MaxInt64)

// New validates the configuration and creates the node (stopped; call
// Start).
func New(cfg Config) (*Node, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("node: nil Protocol")
	}
	fwd, ok := cfg.Protocol.(rcm.Forwarder)
	if !ok {
		return nil, fmt.Errorf("node: protocol %q does not implement the Forwarder capability required for live routing", cfg.Protocol.Name())
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("node: nil Transport")
	}
	if cfg.AddrOf == nil {
		return nil, fmt.Errorf("node: nil AddrOf directory")
	}
	space := cfg.Protocol.Space()
	if !space.Contains(cfg.ID) {
		return nil, fmt.Errorf("node: id %d outside the %d-bit identifier space", cfg.ID, space.Bits())
	}
	if err := replica.ValidateK(cfg.Replicas); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:    cfg,
		fwd:    fwd,
		space:  space,
		tr:     cfg.Transport,
		store:  cfg.Store,
		clk:    clockOf(cfg.Transport),
		in:     newInbox(),
		reqs:   reqTable{window: seenCap},
		wakeAt: noWake,
	}
	n.sim, _ = n.clk.(*clock.Virtual)
	return n, nil
}

// ID returns the node's overlay identifier.
func (n *Node) ID() overlay.ID { return n.cfg.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.tr.Addr() }

// Store returns the node's key-value backend.
func (n *Node) Store() Store { return n.store }

// Start launches the event loop. A transport that can push (in-memory
// endpoints, fault-wrapped or not) delivers into the inbox from the
// sender's goroutine, so the loop is the node's only goroutine; any other
// transport gets a pump goroutine blocking in Recv on the loop's behalf.
// On a virtual network the node has no goroutine at all: the network's
// steps run it (simDeliver, simAfter).
func (n *Node) Start() {
	if n.sim != nil {
		n.tr.(pushTransport).attach(n.simDeliver)
		return
	}
	n.wg.Add(1)
	go n.loop()
	if p, ok := n.tr.(pushTransport); ok && p.attach(n.deliver) {
		return
	}
	n.wg.Add(1)
	go n.pump()
}

// Close stops the node permanently, failing callers blocked on requests.
func (n *Node) Close() {
	n.once.Do(func() {
		n.in.close()
		n.tr.Close()
		if n.sim != nil {
			// What the wall-clock loop does once its last batch has run.
			done := make(chan struct{}, 1)
			n.simAfter(0, func() { n.drop("closed"); done <- struct{}{} })
			await(n, done)
		}
	})
	n.wg.Wait()
}

// Kill simulates a crash: the node stops accepting, forwarding and
// responding, in-flight state is dropped, and local callers get an error.
// The transport stays open (packets arrive and are ignored), matching a
// live process whose DHT layer died. Kill blocks until the loop has
// applied it.
func (n *Node) Kill() { n.control(true) }

// Restart brings a killed node back (with its store intact).
func (n *Node) Restart() { n.control(false) }

// Down reports whether the node is currently killed.
func (n *Node) Down() bool { return n.downNow.Load() }

// control applies Kill/Restart on the loop and waits for it. After Close
// it is a rejected no-op: the inbox refuses the post, so a closed node's
// downNow is never re-armed.
func (n *Node) control(down bool) {
	ack := make(chan struct{}, 1)
	if n.post(func() {
		if down && !n.downNow.Load() {
			// Crash semantics: every in-flight responsibility dies with
			// the node.
			n.drop("killed")
		}
		n.downNow.Store(down)
		ack <- struct{}{}
	}) {
		await(n, ack)
	}
}

// loop is the event loop: every piece of routing state is owned by this
// goroutine, so handlers never lock. It drains the inbox a batch at a
// time. rcm:event-loop (the loopowner dispatch root: code reachable from
// here may touch rcm:loop-owned fields).
func (n *Node) loop() {
	defer n.wg.Done()
	var batch []inboxEntry
	for open := true; open; {
		batch, open = n.in.take(batch)
		for i := range batch {
			n.run(&batch[i], open)
		}
		clear(batch) // it is the next spare: keep no packet or closure alive through it
	}
	// The inbox accepted every post it reported true for and the final
	// batch has run them, so whoever is still waiting is registered here:
	// fail them, since nothing reaches the loop from now on.
	n.drop("closed")
}

// run is one turn of the loop: a posted function, or a datagram — which
// a closed node does not answer, serving only its blocked callers.
func (n *Node) run(e *inboxEntry, open bool) {
	n.now = -1
	if e.fn != nil {
		e.fn()
	} else if open {
		n.handle(e.pkt, e.from)
	}
}

// simDeliver runs one arriving datagram on a node of a virtual network,
// whose steps are the loop: each runs while no other code of the network
// does. rcm:event-loop
func (n *Node) simDeliver(pkt []byte, from string) {
	n.run(&inboxEntry{pkt: pkt, from: from}, !n.in.isClosed())
}

// simAfter runs f as one step of the node's virtual network, d from now.
// rcm:loop-post (a step runs while no other code of the network does: f
// runs as this node's loop)
func (n *Node) simAfter(d time.Duration, f func()) {
	n.sim.AfterFunc(d, f)
}

// await returns the value the loop sends on ch. On a virtual network
// nothing else steps the network, so the waiting caller does, until the
// value is there.
func await[T any](n *Node, ch chan T) T {
	if n.sim != nil && !n.sim.Run(func() bool { return len(ch) > 0 }) {
		panic("node: the virtual network ran dry while a caller waited on it")
	}
	return <-ch
}

// clock returns the time at which the running loop turn first asked for
// it: a turn reads the clock at most once, and one that needs no time (an
// acknowledgement) not at all.
func (n *Node) clock() time.Duration {
	if n.now < 0 {
		n.now = n.clk.Now()
	}
	return n.now
}

// arm queues the timer ref — a forward record's RTO or an origin record's
// guard, located by h — for deadline at.
func (n *Node) arm(h *clock.Handle, ref uint32, at time.Duration) {
	n.timers.Arm(h, ref, at)
	n.wakeBy(at)
}

// wakeBy makes the clock timer due no later than at. It is only ever
// moved earlier: a wake-up that finds nothing due re-arms for what is.
func (n *Node) wakeBy(at time.Duration) {
	if at >= n.wakeAt {
		return
	}
	n.wakeAt = at
	if n.wake == nil {
		n.wake = n.clk.AfterFunc(at-n.clock(), func() { n.post(func() { n.tick() }) })
	} else {
		n.wake.Reset(at - n.clock())
	}
}

// tick is the clock timer's turn of the loop: fire every timer now due,
// earliest first, then re-arm for the next.
func (n *Node) tick() {
	n.wakeAt = noWake
	for {
		at, ok := n.timers.Next()
		if !ok {
			return
		}
		if at > n.clock() {
			n.wakeBy(at)
			return
		}
		_, ref, _ := n.timers.Pop()
		if ref&1 == 0 {
			n.handleTimeout(n.reqs.fwds.recs[ref>>1])
		} else {
			n.expire(n.reqs.waits.recs[ref>>1])
		}
	}
}

// drop ends every in-flight responsibility — forward attempts, waiting
// originators, and the timers of both — as a crash or Close does.
func (n *Node) drop(why string) {
	n.timers.Clear()
	n.reqs.clearRoles(func(w *originWait) {
		w.ch <- Result{Err: fmt.Errorf("node %d: %s", n.cfg.ID, why)}
	})
	if n.wake != nil {
		n.wake.Stop()
	}
	n.wakeAt = noWake
}

// pump feeds the inbox from a transport that can only be read by
// blocking in Recv (a socket).
func (n *Node) pump() {
	defer n.wg.Done()
	for {
		pkt, from, err := n.tr.Recv()
		if err != nil || !n.in.put(inboxEntry{pkt: pkt, from: from}) {
			return
		}
	}
}

// deliver hands one arriving datagram to the loop; the node owns pkt from
// here on. It is the push transports' entry, called on the sender's
// goroutine.
func (n *Node) deliver(pkt []byte, from string) {
	n.in.put(inboxEntry{pkt: pkt, from: from})
}

// post schedules f on the loop — on a virtual network, as a step of its
// own — reporting false if the node is closed; an accepted f always
// runs. rcm:loop-post (loopowner: function literals passed here run on
// the event-loop goroutine).
func (n *Node) post(f func()) bool {
	if n.sim == nil {
		return n.in.put(inboxEntry{fn: f})
	}
	if n.in.isClosed() {
		return false
	}
	n.simAfter(0, func() {
		open := !n.in.isClosed()
		n.run(&inboxEntry{fn: f}, open)
		if !open {
			n.drop("closed") // closed after accepting f: f may have registered a waiter
		}
	})
	return true
}

// ---- Public operations -------------------------------------------------

// KeyHash maps a string key to its full 64-bit FNV-1a digest — the
// store key. Stores index by the full digest, not the folded
// identifier, so distinct keys owned by the same node stay distinct
// even in tiny identifier spaces.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// KeyID maps a string key to its owner's identifier — KeyHash folded
// into the space, so every node (and client) agrees on ownership.
func KeyID(space overlay.Space, key string) overlay.ID {
	return overlay.ID(KeyHash(key) & (space.Size() - 1))
}

// Lookup routes to the owner of dst and reports the hop count.
func (n *Node) Lookup(dst overlay.ID) Result {
	return n.issue(OpLookup, dst, 0, nil)
}

// Get fetches the value stored under key. With replication it tries the
// key's owners in placement order, failing over on routing failures and
// NotFound alike, and returns the first successful read; Hops accumulates
// across attempts (the route cost actually paid), matching eventsim's
// replicated-lookup hop accounting.
func (n *Node) Get(key string) Result {
	owners, err := n.owners(KeyID(n.space, key))
	if err != nil {
		return Result{Err: err}
	}
	hash := KeyHash(key)
	prior := 0
	var last Result
	for _, o := range owners {
		r := n.issue(OpGet, o, hash, nil)
		r.Hops += prior
		if r.OK() {
			return r
		}
		prior = r.Hops
		last = r
	}
	return last
}

// Put stores value under key. With replication it writes every owner in
// the key's replica set, best-effort: the result is OK if any replica
// stored the value (the first success's verdict), and Hops totals the
// route cost of all attempts.
func (n *Node) Put(key string, value []byte) Result {
	if len(value) > MaxValueLen {
		return Result{Err: fmt.Errorf("node: value of %d bytes exceeds the %d-byte wire limit", len(value), MaxValueLen)}
	}
	owners, err := n.owners(KeyID(n.space, key))
	if err != nil {
		return Result{Err: err}
	}
	hash := KeyHash(key)
	var out Result
	stored, total := false, 0
	for _, o := range owners {
		r := n.issue(OpPut, o, hash, value)
		total += r.Hops
		if r.OK() && !stored {
			out, stored = r, true
		} else if !stored {
			out = r
		}
	}
	out.Hops = total
	return out
}

// owners returns the replica set of root in placement order — just root
// when replication is off. The slice is freshly allocated: public
// operations run on caller goroutines and must not share loop-owned
// buffers.
func (n *Node) owners(root overlay.ID) ([]overlay.ID, error) {
	if n.cfg.Replicas <= 1 {
		return []overlay.ID{root}, nil
	}
	set, err := replica.For(n.cfg.Protocol, n.space, nil, root, n.cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return set, nil
}

// issue originates a request at this node and blocks for its verdict.
func (n *Node) issue(op Op, dst overlay.ID, key uint64, value []byte) Result {
	if n.downNow.Load() {
		return Result{Err: fmt.Errorf("node %d: down", n.cfg.ID)}
	}
	if !n.space.Contains(dst) {
		return Result{Status: StatusNoRoute, Err: fmt.Errorf("node %d: destination %d outside the %d-bit identifier space", n.cfg.ID, dst, n.space.Bits())}
	}
	ch := make(chan Result, 1)
	if !n.originate(ch, op, dst, key, value) {
		return Result{Err: fmt.Errorf("node %d: closed", n.cfg.ID)}
	}
	// The accepted post runs and registers ch, and a registered origin
	// always concludes: by its response, its guard, Kill, or Close.
	return await(n, ch)
}

// originate posts a request issued at this node, whose verdict arrives on
// ch (buffered), reporting false if the node is closed.
func (n *Node) originate(ch chan Result, op Op, dst overlay.ID, key uint64, value []byte) bool {
	return n.post(func() {
		if n.downNow.Load() {
			ch <- Result{Err: fmt.Errorf("node %d: down", n.cfg.ID)}
			return
		}
		// A request id is fresh unless a datagram forged it; then take the
		// next, so an entry's roles always belong to one request.
		var reqID uint64
		i := -1
		for i < 0 || !n.reqs.slots[i].empty() {
			reqID = uint64(n.cfg.ID)<<32 | (n.reqSeq.Add(1) & 0xffffffff)
			i = n.reqs.entry(reqID)
		}
		w := n.reqs.addWait(i)
		w.ch, w.op, w.reqID, w.start = ch, op, reqID, n.clock()
		// Local response deadline: if every downstream holder dies or the
		// response datagram is lost, the origin still concludes.
		n.arm(&w.guard, w.id<<1|1, w.start+n.guardTime())
		m := message{
			Kind:     msgReq,
			Op:       op,
			Budget:   uint16(n.space.MaxHops()),
			ReqID:    reqID,
			Dst:      uint64(dst),
			Key:      key,
			Deadline: uint32(n.cfg.Deadline / time.Millisecond),
			Origin:   n.tr.Addr(),
			Value:    value,
		}
		n.hold(&m, i)
	})
}

// guardTime is how long an origin waits for a verdict: the request's
// deadline plus one acknowledgement exchange.
func (n *Node) guardTime() time.Duration { return n.cfg.Deadline + 2*n.cfg.RTO }

// expire concludes an origin whose response guard ran out.
func (n *Node) expire(w *originWait) {
	n.stats.Expired++
	w.ch <- Result{Status: StatusExpired, Err: fmt.Errorf("node %d: request %#x: no response within %v", n.cfg.ID, w.reqID, n.guardTime())}
	n.reqs.dropWait(n.reqs.lookup(w.reqID))
}

// ---- Event handlers (loop goroutine only) ------------------------------

// handle decodes and dispatches one datagram. The decoded message is
// passed by pointer from here on; a forward record takes the one copy.
func (n *Node) handle(pkt []byte, from string) {
	if n.downNow.Load() {
		return // a dead node neither acknowledges nor routes
	}
	var m message
	if m.decode(pkt) != nil {
		return // malformed datagram: drop, like any UDP service
	}
	n.stats.countIn(m.Kind)
	switch m.Kind {
	case msgReq:
		n.handleReq(&m, from)
	case msgAck:
		n.handleAck(&m)
	case msgResp:
		n.handleResp(&m)
	}
}

// handleReq mirrors eventsim's handleReq: acknowledge so the sender
// retires its attempt — ownership of the request transfers here with the
// message — then apply or keep forwarding. Duplicates are acknowledged
// and dropped; a fresh request that would overflow the forward table is
// shed *without* an acknowledgement, so the sender's RTO machinery
// routes around the overload exactly as it would a lost request. One
// table probe finds or makes the request's entry.
func (n *Node) handleReq(m *message, from string) {
	if !n.space.Contains(overlay.ID(m.Dst)) {
		// Malformed outside input: no node owns it, and since every
		// distance is masked, forwarding would carry it hop by hop toward
		// Dst mod N before anyone noticed. Retire the sender's attempt and
		// refuse at once, recording nothing.
		n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
		n.respond(m, StatusNoRoute, nil)
		return
	}
	i := n.reqs.entry(m.ReqID)
	if n.reqs.seen(i) || n.reqs.fwdAt(i) != nil {
		// A duplicate delivery (our ACK was lost) or a retransmission of
		// an attempt we accepted moments ago: already handled.
		n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
		n.stats.DupReqs++
		return
	}
	if overlay.ID(m.Dst) != n.cfg.ID && n.reqs.fwds.inUse() >= maxInFlight {
		// Graceful degradation: the forward table is full, so refuse
		// responsibility for relayed work (requests we own are always
		// served — they never enter the table). Deterministic, silent,
		// counted.
		n.reqs.release(i)
		n.stats.Shed++
		return
	}
	n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
	evicted, full := n.reqs.see(i)
	m.Hops++
	n.hold(m, i)
	if full {
		n.reqs.unsee(evicted)
	}
}

// hold is the holder state machine shared by origination and receipt:
// complete the request at its owner, or pick the first candidate and
// dispatch. i is the request's table slot.
func (n *Node) hold(m *message, i int) {
	if overlay.ID(m.Dst) == n.cfg.ID {
		n.applyOwner(m)
		return
	}
	if m.Budget == 0 {
		n.respond(m, StatusHopBudget, nil)
		return
	}
	st := n.reqs.addFwd(i)
	st.cands = n.fwd.AppendCandidateHops(st.cands, n.cfg.ID, overlay.ID(m.Dst))
	if len(st.cands) == 0 {
		n.reqs.dropFwd(i)
		n.respond(m, StatusNoRoute, nil)
		return
	}
	st.msg = *m
	st.msg.Budget--
	st.deadline = n.clock() + time.Duration(m.Deadline)*time.Millisecond
	n.dispatch(st)
}

// dispatch sends the request to the current candidate and arms the RTO —
// the live counterpart of eventsim's dispatch.
func (n *Node) dispatch(st *pendingFwd) {
	remaining := st.deadline - n.clock()
	if remaining <= 0 {
		n.respond(&st.msg, StatusExpired, nil)
		n.retire(st)
		return
	}
	st.msg.Deadline = uint32(remaining / time.Millisecond)
	st.msg.Status = Status(st.try) // a request's status byte carries its try (wire.go)
	n.sendMsg(n.cfg.AddrOf(st.cands[st.ci]), &st.msg)
	n.arm(&st.rto, st.id<<1, n.clock()+n.cfg.RTO)
}

// retire ends st's forward attempt, whose RTO is not queued.
func (n *Node) retire(st *pendingFwd) {
	n.reqs.dropFwd(n.reqs.lookup(st.msg.ReqID))
}

// handleAck retires the acknowledged attempt: the downstream hop has
// accepted responsibility.
func (n *Node) handleAck(m *message) {
	i := n.reqs.lookup(m.ReqID)
	if i < 0 {
		return
	}
	st := n.reqs.fwdAt(i)
	if st == nil {
		return
	}
	n.timers.Stop(&st.rto)
	n.reqs.dropFwd(i)
}

// handleTimeout mirrors eventsim's handleTimeout: retransmit to the same
// candidate first (a lost request must not skip the best next hop), fail
// over to the next candidate once retransmissions are exhausted, and fail
// the request when no candidates remain. The timer queue has already
// dropped st's RTO; an acknowledged attempt's never fires.
func (n *Node) handleTimeout(st *pendingFwd) {
	n.stats.Timeouts++
	if st.try < n.cfg.Retransmits {
		st.try++
		n.stats.Retransmits++
		n.dispatch(st)
		return
	}
	st.ci++
	st.try = 0
	n.stats.Failovers++
	if st.ci >= len(st.cands) {
		n.respond(&st.msg, StatusNoRoute, nil)
		n.retire(st)
		return
	}
	n.dispatch(st)
}

// applyOwner performs the operation at the key's owner and responds to
// the origin.
func (n *Node) applyOwner(m *message) {
	switch m.Op {
	case OpGet:
		n.stats.StoreGets++
		if v, ok := n.store.Get(m.Key); ok {
			n.stats.StoreHits++
			n.respond(m, StatusOK, v)
		} else {
			n.respond(m, StatusNotFound, nil)
		}
	case OpPut:
		n.stats.StorePuts++
		n.store.Put(m.Key, m.Value)
		n.respond(m, StatusOK, nil)
	default:
		n.respond(m, StatusOK, nil)
	}
}

// respond sends the final verdict straight to the origin (or delivers
// locally when this node originated the request).
func (n *Node) respond(req *message, status Status, value []byte) {
	resp := message{
		Kind:   msgResp,
		Op:     req.Op,
		Status: status,
		Hops:   req.Hops,
		ReqID:  req.ReqID,
		Value:  value,
	}
	if req.Origin == n.tr.Addr() {
		n.handleResp(&resp)
		return
	}
	n.sendMsg(req.Origin, &resp)
}

// handleResp delivers a verdict to the waiting originator, deduplicating
// by request id.
func (n *Node) handleResp(m *message) {
	i := n.reqs.lookup(m.ReqID)
	if i < 0 {
		return // duplicate or late response
	}
	w := n.reqs.waitAt(i)
	if w == nil {
		return
	}
	n.timers.Stop(&w.guard)
	n.stats.recordVerdict(w.op, m.Status, int(m.Hops), n.clock()-w.start)
	w.ch <- Result{Status: m.Status, Hops: int(m.Hops), Value: m.Value}
	n.reqs.dropWait(i)
}

// sendMsg encodes and transmits one message, best-effort.
func (n *Node) sendMsg(addr string, m *message) {
	if addr == "" {
		return
	}
	buf, err := appendWire(n.encBuf[:0], m)
	if err != nil {
		return // oversized value: callers validate, so only corrupt state lands here
	}
	n.encBuf = buf[:0]
	n.stats.countOut(m.Kind)
	n.tr.Send(addr, buf)
}
