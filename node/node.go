package node

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"rcm"
	"rcm/obs"
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
	// MaxHops bounds route length (default 4·bits + 16, the eventsim
	// default).
	MaxHops int
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
	// AdaptiveRTO replaces the fixed retransmission timeout with a
	// per-peer Jacobson/Karn estimator (RFC 6298 gains, samples from
	// requests sent exactly once — Karn's rule) with exponential
	// backoff, floored at max(1ms, RTO/8) and capped at 8×RTO. The same
	// estimator (obs.RTT) eventsim runs with Config.AdaptiveRTO, except
	// the live floor may undercut the fixed RTO: a consistently fast peer
	// is declared lost sooner, which is the point. Off by default.
	AdaptiveRTO bool
	// MaxInFlight bounds the forward-attempt table: once this many
	// relayed requests await hop acknowledgements, further requests for
	// other owners are shed — dropped without an acknowledgement, so the
	// upstream sender's RTO machinery routes around this node exactly as
	// it would a lost request. Shedding is deterministic (a pure function
	// of table occupancy), never applies to requests this node owns, and
	// is counted in Metrics.Shed. 0 selects the default 4096; negative
	// disables the bound.
	MaxInFlight int
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
	if cfg.MaxHops <= 0 && cfg.Protocol != nil {
		cfg.MaxHops = 4*cfg.Protocol.Space().Bits() + 16
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Second
	}
	switch {
	case cfg.MaxInFlight == 0:
		cfg.MaxInFlight = 4096
	case cfg.MaxInFlight < 0:
		cfg.MaxInFlight = int(^uint(0) >> 1) // unbounded
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
// acknowledgement — the live counterpart of eventsim's pending arena slot.
type pendingFwd struct {
	msg      message      // the request as this holder forwards it
	cands    []overlay.ID // candidate next hops, best first, enumerated once
	ci       int          // current candidate index
	try      int          // retransmissions consumed for this candidate
	attempt  uint64       // guards against stale timer firings
	timer    *time.Timer
	deadline time.Time // absolute per-message deadline at this holder
	sentAt   time.Time // this attempt's send time — the RTT sample reference
}

// originWait is one locally-originated request awaiting its verdict:
// the caller's channel plus what the origin needs to attribute the
// outcome (operation, issue time) when the response arrives, and the
// response-deadline guard timer, stopped with whatever concludes the
// request first.
type originWait struct {
	ch    chan Result
	op    Op
	start time.Time
	guard *time.Timer
}

// Node is one live DHT node: an event-loop goroutine owning all routing
// state, fed through one inbox by arriving datagrams, local callers and
// timer callbacks. The public methods are safe for concurrent use.
type Node struct {
	cfg   Config
	fwd   rcm.Forwarder
	space overlay.Space
	tr    Transport
	store Store

	in   *inbox
	wg   sync.WaitGroup
	once sync.Once

	reqSeq  atomic.Uint64
	downNow atomic.Bool // read by fast paths; written only by the loop

	// Loop-owned state (no locking: only the event loop touches it).
	// The rcm:loop-owned markers are enforced by rcmlint's loopowner
	// analyzer: any read or write outside code reachable from the
	// rcm:event-loop dispatch is a lint error, not a latent race.
	pending    map[uint64]*pendingFwd                // rcm:loop-owned
	origins    map[uint64]originWait                 // rcm:loop-owned
	attemptSeq uint64                                // rcm:loop-owned
	seen       map[uint64]struct{}                   // rcm:loop-owned — recently handled request ids (dedupe)
	seenRing   []uint64                              // rcm:loop-owned — the same ids in arrival order; a ring once seenCap long
	seenHead   int                                   // rcm:loop-owned — oldest ring slot
	now        time.Time                             // rcm:loop-owned — see clock
	encBuf     []byte                                // rcm:loop-owned
	candBuf    []overlay.ID                          // rcm:loop-owned
	rtt        map[overlay.ID]obs.RTT[time.Duration] // rcm:loop-owned — per-peer adaptive-RTO estimator
	stats      Metrics                               // rcm:loop-owned — counters and histograms (see metrics.go)
}

const seenCap = 4096

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
		cfg:     cfg,
		fwd:     fwd,
		space:   space,
		tr:      cfg.Transport,
		store:   cfg.Store,
		in:      newInbox(),
		pending: make(map[uint64]*pendingFwd),
		origins: make(map[uint64]originWait),
		seen:    make(map[uint64]struct{}),
		rtt:     make(map[overlay.ID]obs.RTT[time.Duration]),
	}
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
func (n *Node) Start() {
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
	ack := make(chan struct{})
	if n.post(func() {
		if down && !n.downNow.Load() {
			// Crash semantics: every in-flight responsibility dies with
			// the node.
			for _, st := range n.pending {
				st.timer.Stop()
			}
			n.pending = make(map[uint64]*pendingFwd)
			n.failOrigins("killed")
		}
		n.downNow.Store(down)
		close(ack)
	}) {
		<-ack
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
			e := &batch[i]
			n.now = time.Time{}
			if e.fn != nil {
				e.fn()
			} else if open { // a closed node answers no datagram, only its blocked callers
				n.handle(e.pkt, e.from)
			}
		}
		clear(batch) // it is the next spare: keep no packet or closure alive through it
	}
	// The inbox accepted every post it reported true for and the final
	// batch has run them, so whoever is still waiting is registered here:
	// fail them, since timers firing from now on cannot reach the loop.
	n.failOrigins("closed")
	for _, st := range n.pending {
		st.timer.Stop()
	}
}

// clock returns the time at which the running inbox entry first asked
// for it: an entry reads the clock at most once, and one that needs no
// time (an acknowledgement under the fixed RTO) not at all.
func (n *Node) clock() time.Time {
	if n.now.IsZero() {
		n.now = time.Now()
	}
	return n.now
}

// failOrigins concludes every still-waiting originator with a local
// failure and disarms its response guard.
func (n *Node) failOrigins(why string) {
	for id, w := range n.origins {
		delete(n.origins, id)
		w.guard.Stop()
		w.ch <- Result{Err: fmt.Errorf("node %d: %s", n.cfg.ID, why)}
	}
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

// post schedules f on the loop, reporting false if the node is closed;
// an accepted f always runs. rcm:loop-post (loopowner: function literals
// passed here run on the event-loop goroutine).
func (n *Node) post(f func()) bool {
	return n.in.put(inboxEntry{fn: f})
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
	reqID := uint64(n.cfg.ID)<<32 | (n.reqSeq.Add(1) & 0xffffffff)
	ch := make(chan Result, 1)
	m := message{
		Kind:     msgReq,
		Op:       op,
		Hops:     0,
		Budget:   uint16(n.cfg.MaxHops),
		ReqID:    reqID,
		Dst:      uint64(dst),
		Key:      key,
		Deadline: uint32(n.cfg.Deadline / time.Millisecond),
		Origin:   n.tr.Addr(),
		Value:    value,
	}
	ok := n.post(func() {
		if n.downNow.Load() {
			ch <- Result{Err: fmt.Errorf("node %d: down", n.cfg.ID)}
			return
		}
		// Local response deadline: if every downstream holder dies or the
		// response datagram is lost, the origin still concludes.
		guard := n.cfg.Deadline + 2*n.cfg.RTO
		timer := time.AfterFunc(guard, func() {
			n.post(func() {
				if w, live := n.origins[reqID]; live {
					delete(n.origins, reqID)
					n.stats.Expired++
					w.ch <- Result{Status: StatusExpired, Err: fmt.Errorf("node %d: request %#x: no response within %v", n.cfg.ID, reqID, guard)}
				}
			})
		})
		n.origins[reqID] = originWait{ch: ch, op: op, start: n.clock(), guard: timer}
		n.hold(m)
	})
	if !ok {
		return Result{Err: fmt.Errorf("node %d: closed", n.cfg.ID)}
	}
	// The accepted post runs and registers ch, and a registered origin
	// always concludes: by its response, its guard, Kill, or the loop's
	// exit.
	return <-ch
}

// ---- Event handlers (loop goroutine only) ------------------------------

// handle decodes and dispatches one datagram.
func (n *Node) handle(pkt []byte, from string) {
	if n.downNow.Load() {
		return // a dead node neither acknowledges nor routes
	}
	m, err := decodeWire(pkt)
	if err != nil {
		return // malformed datagram: drop, like any UDP service
	}
	n.stats.countIn(m.Kind)
	switch m.Kind {
	case msgReq:
		n.handleReq(m, from)
	case msgAck:
		n.handleAck(m)
	case msgResp:
		n.handleResp(m)
	}
}

// handleReq mirrors eventsim's handleReq: acknowledge so the sender
// retires its attempt — ownership of the request transfers here with the
// message — then apply or keep forwarding. Duplicates are acknowledged
// and dropped; a fresh request that would overflow the forward table is
// shed *without* an acknowledgement, so the sender's RTO machinery
// routes around the overload exactly as it would a lost request.
func (n *Node) handleReq(m message, from string) {
	if !n.space.Contains(overlay.ID(m.Dst)) {
		// Malformed outside input: no node owns it, and since every
		// distance is masked, forwarding would carry it hop by hop toward
		// Dst mod N before anyone noticed. Retire the sender's attempt and
		// refuse at once, recording nothing.
		n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
		n.respond(m, StatusNoRoute, nil)
		return
	}
	if _, dup := n.seen[m.ReqID]; dup {
		n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
		n.stats.DupReqs++
		return // duplicate delivery (our ACK was lost); already handled
	}
	if _, fwding := n.pending[m.ReqID]; fwding {
		n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
		n.stats.DupReqs++
		return // retransmission of an attempt we accepted moments ago
	}
	if overlay.ID(m.Dst) != n.cfg.ID && len(n.pending) >= n.cfg.MaxInFlight {
		// Graceful degradation: the forward table is full, so refuse
		// responsibility for relayed work (requests we own are always
		// served — they never enter the table). Deterministic, silent,
		// counted.
		n.stats.Shed++
		return
	}
	n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
	n.markSeen(m.ReqID)
	m.Hops++
	n.hold(m)
}

// hold is the holder state machine shared by origination and receipt:
// complete the request at its owner, or pick the first candidate and
// dispatch.
func (n *Node) hold(m message) {
	if overlay.ID(m.Dst) == n.cfg.ID {
		n.applyOwner(m)
		return
	}
	if m.Budget == 0 {
		n.respond(m, StatusHopBudget, nil)
		return
	}
	n.candBuf = n.fwd.AppendCandidateHops(n.candBuf[:0], n.cfg.ID, overlay.ID(m.Dst))
	if len(n.candBuf) == 0 {
		n.respond(m, StatusNoRoute, nil)
		return
	}
	st := &pendingFwd{
		msg:      m,
		cands:    append([]overlay.ID(nil), n.candBuf...),
		deadline: n.clock().Add(time.Duration(m.Deadline) * time.Millisecond),
	}
	n.pending[m.ReqID] = st
	n.dispatch(st)
}

// dispatch sends the request to the current candidate and arms the RTO —
// the live counterpart of eventsim's dispatch.
func (n *Node) dispatch(st *pendingFwd) {
	remaining := st.deadline.Sub(n.clock())
	if remaining <= 0 {
		delete(n.pending, st.msg.ReqID)
		n.respond(st.msg, StatusExpired, nil)
		return
	}
	n.attemptSeq++
	st.attempt = n.attemptSeq
	out := st.msg
	out.Budget--
	out.Deadline = uint32(remaining / time.Millisecond)
	st.sentAt = n.clock()
	n.sendMsg(n.cfg.AddrOf(st.cands[st.ci]), &out)
	attempt := st.attempt
	reqID := st.msg.ReqID
	rto := n.cfg.RTO
	if n.cfg.AdaptiveRTO {
		// Unlike the simulator, whose floor is the configured RTO (its
		// arena invariant), the live floor may undercut it: a nearby
		// responsive peer is probed faster and a dead one detected
		// sooner. Safe here because pending state is keyed by request
		// id, not held in recycled slots.
		rto = n.rtt[st.cands[st.ci]].RTO(rto, max(time.Millisecond, rto/8), st.try)
	}
	st.timer = time.AfterFunc(rto, func() {
		n.post(func() { n.handleTimeout(reqID, attempt) })
	})
}

// handleAck retires the acknowledged attempt: the downstream hop has
// accepted responsibility.
func (n *Node) handleAck(m message) {
	st, ok := n.pending[m.ReqID]
	if !ok {
		return
	}
	st.timer.Stop()
	if n.cfg.AdaptiveRTO && st.ci == 0 && st.try == 0 {
		// Karn's rule: only a request this holder has sent exactly once
		// yields an RTT sample. Acks carry no sender, so after a
		// retransmission or a failover the ack is ambiguous about which
		// copy it answers — a slow ack from the candidate just given up
		// on would otherwise read as a near-zero RTT for the next one.
		peer := st.cands[0]
		est := n.rtt[peer]
		est.Observe(n.clock().Sub(st.sentAt))
		n.rtt[peer] = est
	}
	delete(n.pending, m.ReqID)
}

// handleTimeout mirrors eventsim's handleTimeout: retransmit to the same
// candidate first (a lost request must not skip the best next hop), fail
// over to the next candidate once retransmissions are exhausted, and fail
// the request when no candidates remain.
func (n *Node) handleTimeout(reqID, attempt uint64) {
	st, ok := n.pending[reqID]
	if !ok || st.attempt != attempt {
		return // acknowledged or superseded in the meantime
	}
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
		delete(n.pending, reqID)
		n.respond(st.msg, StatusNoRoute, nil)
		return
	}
	n.dispatch(st)
}

// applyOwner performs the operation at the key's owner and responds to
// the origin.
func (n *Node) applyOwner(m message) {
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
func (n *Node) respond(req message, status Status, value []byte) {
	resp := message{
		Kind:   msgResp,
		Op:     req.Op,
		Status: status,
		Hops:   req.Hops,
		ReqID:  req.ReqID,
		Value:  value,
	}
	if req.Origin == n.tr.Addr() {
		n.handleResp(resp)
		return
	}
	n.sendMsg(req.Origin, &resp)
}

// handleResp delivers a verdict to the waiting originator, deduplicating
// by request id.
func (n *Node) handleResp(m message) {
	w, ok := n.origins[m.ReqID]
	if !ok {
		return // duplicate or late response
	}
	delete(n.origins, m.ReqID)
	w.guard.Stop()
	n.stats.recordVerdict(w.op, m.Status, int(m.Hops), n.clock().Sub(w.start))
	w.ch <- Result{Status: m.Status, Hops: int(m.Hops), Value: m.Value}
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

// markSeen records a handled request id in the bounded dedupe window,
// evicting the oldest once seenCap ids are held.
func (n *Node) markSeen(reqID uint64) {
	if len(n.seenRing) < seenCap {
		n.seenRing = append(n.seenRing, reqID)
	} else {
		delete(n.seen, n.seenRing[n.seenHead])
		n.seenRing[n.seenHead] = reqID
		n.seenHead = (n.seenHead + 1) % seenCap
	}
	n.seen[reqID] = struct{}{}
}
