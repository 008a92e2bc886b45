package node

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rcm"
	"rcm/fault"
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
	// Fault is the bound fault plan (rcm/fault) the node applies to the
	// requests it sends and receives, as eventsim's engine applies
	// eventsim.Config.Fault; nil injects nothing. The Injector is
	// stateless, so every node of a cluster shares one.
	Fault *fault.Injector
	// FaultClock is the plan clock in seconds, against which windowed
	// clauses, stall episodes and each transmission's coins are read;
	// required with Fault and only with it. A cluster replaying a
	// schedule supplies its schedule clock here.
	FaultClock func() float64
}

func (cfg Config) withDefaults() Config {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	cfg.RTO, cfg.Retransmits, cfg.Deadline = timingDefaults(cfg.RTO, cfg.Retransmits, cfg.Deadline)
	return cfg
}

// timingDefaults applies the request timing defaults a node and a client
// share: RTO 50 ms, Retransmits 2 (negative: none) and Deadline 5 s.
func timingDefaults(rto time.Duration, retransmits int, deadline time.Duration) (time.Duration, int, time.Duration) {
	if rto <= 0 {
		rto = 50 * time.Millisecond
	}
	switch {
	case retransmits == 0:
		retransmits = 2
	case retransmits < 0:
		retransmits = 0
	}
	if deadline <= 0 {
		deadline = 5 * time.Second
	}
	return rto, retransmits, deadline
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

// Node is one live DHT node: routing state touched only in the node's
// turns, fed through one inbox by arriving datagrams, local callers and
// its timer wake-up, and run by whichever goroutine holds the inbox's
// runner role. The public methods are safe for concurrent use.
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

	in     *inbox
	wg     sync.WaitGroup
	once   sync.Once
	yields bool // a wall-clock push transport: await yields before it blocks

	reqSeq  atomic.Uint64
	downNow atomic.Bool // read by fast paths; written only in a turn

	// Loop-owned state (no locking: only the node's turns touch it, and
	// one goroutine at a time runs them).
	// The rcm:loop-owned markers are enforced by rcmlint's loopowner
	// analyzer: any read or write outside code reachable from the
	// rcm:event-loop dispatch is a lint error, not a latent race.
	reqs   reqTable            // rcm:loop-owned — forward attempts and waiting origins by request id, and the dedupe window
	timers clock.Queue[uint32] // rcm:loop-owned — record id<<1: a forward attempt's RTO; id<<1 | 1: an origin's response guard
	wake   clock.Timer         // rcm:loop-owned — the one clock timer, due at wakeAt; made on first use
	wakeAt time.Duration       // rcm:loop-owned — noWake while the wake is not armed
	now    time.Duration       // rcm:loop-owned — see clock
	encBuf []byte              // rcm:loop-owned
	stats  stats               // rcm:loop-owned — Metrics' counters; its histograms made on first use (see metrics.go)
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
	if (cfg.Fault == nil) != (cfg.FaultClock == nil) {
		return nil, fmt.Errorf("node: Fault and FaultClock are set together: a fault plan is read against its plan clock")
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:    cfg,
		fwd:    fwd,
		space:  space,
		tr:     cfg.Transport,
		store:  cfg.Store,
		clk:    clock.Of(cfg.Transport),
		in:     newInbox(),
		reqs:   reqTable{seen: seenWindow{limit: seenCap}},
		wakeAt: noWake,
	}
	n.sim, _ = n.clk.(*clock.Virtual)
	_, push := cfg.Transport.(pushTransport)
	n.yields = push && n.sim == nil
	return n, nil
}

// ID returns the node's overlay identifier.
func (n *Node) ID() overlay.ID { return n.cfg.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.tr.Addr() }

// Store returns the node's key-value backend.
func (n *Node) Store() Store { return n.store }

// Start opens the node's inbox and runs whatever was posted to it
// before. The node has no goroutine of its own: whoever puts an entry
// into its idle inbox runs its turns (drain). A transport that can push
// (in-memory endpoints) delivers from the sender's goroutine, so an
// uncontended request runs hop by hop on its caller's goroutine; any
// other transport gets a pump goroutine blocking in Recv, which runs the
// turns of what it receives. On a virtual network the network's steps
// run the node (simDeliver, simAfter). rcm:loop-claim
func (n *Node) Start() {
	if n.sim != nil {
		n.tr.(pushTransport).attach(n.simDeliver)
		return
	}
	claimed, open := n.in.start()
	if !open {
		return
	}
	if p, ok := n.tr.(pushTransport); ok {
		p.attach(n.deliver)
	} else {
		n.wg.Add(1)
		go n.pump()
	}
	if claimed {
		n.drain(nil, drainCap)
	}
}

// Close stops the node permanently, failing callers blocked on requests.
// It returns once the final drop has run — on the goroutine holding the
// runner role, or on this one when nobody holds it — and the node's
// goroutines have exited.
func (n *Node) Close() {
	n.once.Do(n.shutdown)
	<-n.in.drained
	n.wg.Wait()
}

// shutdown is Close's one run: it closes the inbox and the transport and,
// if nobody holds the runner role, claims it to run the rest and the
// final drop. rcm:loop-claim
func (n *Node) shutdown() {
	claimed := n.in.close()
	n.tr.Close()
	if n.sim != nil {
		// What a wall-clock node's final drain does.
		done := make(chan struct{}, 1)
		n.simAfter(0, func() { n.drop("closed"); done <- struct{}{} })
		await(n, done)
		close(n.in.drained)
	} else if claimed {
		n.drain(nil, -1)
	}
}

// Kill simulates a crash: the node stops accepting, forwarding and
// responding, in-flight state is dropped, and local callers get an error.
// The transport stays open (packets arrive and are ignored), matching a
// live process whose DHT layer died. Kill blocks until a turn of the
// node has applied it.
func (n *Node) Kill() { n.control(true) }

// Restart brings a killed node back (with its store intact).
func (n *Node) Restart() { n.control(false) }

// Down reports whether the node is currently killed.
func (n *Node) Down() bool { return n.downNow.Load() }

// control applies Kill/Restart in a turn and waits for it. After Close
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

// drainCap bounds the turns a borrowed goroutine — a caller's, a
// timer's, a sender's — runs for one node before it hands the rest of
// the queue to a fresh goroutine, so a busy node cannot capture a
// goroutine that is not its own for long.
const drainCap = 256

// drain runs the node's turns while its goroutine holds the runner role:
// every piece of routing state is touched only inside a turn, and one
// goroutine at a time holds the role, so handlers never lock. first, if
// not nil, is the entry whose put claimed the role: put never queued it,
// so drain runs it at once, as the first of its turns, and only then
// takes from the queue. It returns once the inbox is empty and the role
// released, or after budget turns (negative: no bound), handing the role
// on to a fresh goroutine if work remains. On a closed inbox the last
// holder fails whoever still waits: the inbox accepted every post it
// reported true for and they have run, so every waiter is registered,
// and nothing reaches the node from now on. rcm:event-loop (the
// loopowner dispatch root: code reachable from here may touch
// rcm:loop-owned fields).
func (n *Node) drain(first *inboxEntry, budget int) {
	if first != nil {
		n.run(first, true) // put accepted it into an open inbox
		budget--
	}
	for ; ; budget-- {
		e, open := n.in.take()
		if e == nil {
			if !open {
				n.drop("closed")
				close(n.in.drained)
			}
			return
		}
		if budget == 0 {
			n.in.untake()
			n.wg.Add(1)
			go n.handOff()
			return
		}
		n.run(e, open)
	}
}

// handOff drains on a fresh goroutine the queue a borrowed goroutine
// left when its budget ran out; it holds the role from its launch.
// rcm:loop-claim
func (n *Node) handOff() {
	defer n.wg.Done()
	n.drain(nil, -1)
}

// run is one turn of the node: a posted function, or a datagram — which
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

// awaitYields bounds how many times a caller of a node on a wall-clock
// push transport yields its processor (runtime.Gosched) while the value
// it awaits is not in, before it blocks on the channel. The value is sent
// by whichever goroutine holds the node's runner role, often another
// caller that never blocks; a receiver parked on the channel is queued
// by that send on the sender's processor, behind a goroutine that keeps
// running (see the package doc). A yielding caller stays runnable on the
// global queue and sees the value within a scheduling round. 256 yields
// take about 35 µs on an idle processor, several lookups' worth: on a
// two-core host 64 left the two-caller benchmark's 99th-percentile
// latency at 64–83 µs against 31 µs for 256, and 1024 did no better. A
// verdict that takes longer — a retransmission timeout, a node holding
// its role for long — finds its caller blocked.
const awaitYields = 256

// await returns the value a turn of the node sends on ch. On a virtual
// network nothing else steps the network, so the waiting caller does,
// until the value is there. On a wall-clock push transport the caller
// yields up to awaitYields times before it blocks; a UDP node's verdicts
// are sent by its pump, whose own Recv blocks, so its callers block at
// once.
func await[T any](n *Node, ch chan T) T {
	if n.sim != nil && !n.sim.Run(func() bool { return len(ch) > 0 }) {
		panic("node: the virtual network ran dry while a caller waited on it")
	}
	for i := 0; n.yields && i < awaitYields && len(ch) == 0; i++ {
		runtime.Gosched()
	}
	return <-ch
}

// clock returns the time at which the running turn first asked for
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

// tick is the clock timer's turn of the node: fire every timer now due,
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
// blocking in Recv (a socket), and runs the turns of what it receives:
// it is the node's own goroutine, so its drains are unbounded.
func (n *Node) pump() {
	defer n.wg.Done()
	for {
		pkt, from, err := n.tr.Recv()
		if err != nil || !n.enter(inboxEntry{pkt: pkt, from: from}, false, -1) {
			return
		}
	}
}

// deliver hands one arriving datagram to the node. It is the push
// transports' entry, called on the sender's goroutine, and borrows pkt
// until it returns: the inbox copies a datagram that has to wait, and an
// idle node decodes it in a turn run before deliver returns.
func (n *Node) deliver(pkt []byte, from string) {
	n.enter(inboxEntry{pkt: pkt, from: from}, true, drainCap)
}

// enter puts e into the inbox, reporting false once the node is closed.
// If the put claimed the runner role, e was not queued: enter drains,
// e first, up to budget turns in all. lent is put's. rcm:loop-claim
func (n *Node) enter(e inboxEntry, lent bool, budget int) bool {
	accepted, claimed := n.in.put(e, lent)
	if claimed {
		n.drain(&e, budget)
	}
	return accepted
}

// post schedules f as a turn of the node — on a virtual network, as a
// step of its own — reporting false if the node is closed; an accepted f
// always runs, on the caller's goroutine if it claims the role.
// rcm:loop-post (loopowner: function literals passed here run as turns
// of the node).
func (n *Node) post(f func()) bool {
	if n.sim == nil {
		return n.enter(inboxEntry{fn: f}, false, drainCap)
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
// the key's replica set, best-effort: it issues every write before it
// awaits any, so the owners are written concurrently and the Put takes
// as long as its slowest write. The result is OK if any replica stored
// the value (the first success's verdict, in placement order), and Hops
// totals the route cost of all attempts.
func (n *Node) Put(key string, value []byte) Result {
	if len(value) > MaxValueLen {
		return Result{Err: fmt.Errorf("node: value of %d bytes exceeds the %d-byte wire limit", len(value), MaxValueLen)}
	}
	owners, err := n.owners(KeyID(n.space, key))
	if err != nil {
		return Result{Err: err}
	}
	hash := KeyHash(key)
	writes := make([]chan Result, len(owners))
	for i, o := range owners {
		writes[i] = n.begin(OpPut, o, hash, value)
	}
	var out Result
	stored, total := false, 0
	for _, w := range writes {
		r := await(n, w)
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
	return await(n, n.begin(op, dst, key, value))
}

// begin originates a request at this node without waiting: its verdict
// arrives on the returned channel, at once for a request refused here.
// An accepted post runs and registers the channel, and a registered
// origin always concludes: by its response, its guard, Kill, or Close.
func (n *Node) begin(op Op, dst overlay.ID, key uint64, value []byte) chan Result {
	ch := make(chan Result, 1)
	switch {
	case n.downNow.Load():
		ch <- Result{Err: fmt.Errorf("node %d: down", n.cfg.ID)}
	case !n.space.Contains(dst):
		ch <- Result{Status: StatusNoRoute, Err: fmt.Errorf("node %d: destination %d outside the %d-bit identifier space", n.cfg.ID, dst, n.space.Bits())}
	case !n.originate(ch, op, dst, key, value):
		ch <- Result{Err: fmt.Errorf("node %d: closed", n.cfg.ID)}
	}
	return ch
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
		// next.
		reqID := uint64(n.cfg.ID)<<32 | (n.reqSeq.Add(1) & 0xffffffff)
		for !n.reqs.fresh(reqID) {
			reqID = uint64(n.cfg.ID)<<32 | (n.reqSeq.Add(1) & 0xffffffff)
		}
		w := n.reqs.addWait(n.reqs.entry(reqID))
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
		n.hold(&m)
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

// ---- Event handlers (in a turn only) -----------------------------------

// handle decodes and dispatches one datagram. The decoded message is
// passed by pointer from here on; a forward record takes the one copy.
func (n *Node) handle(pkt []byte, from string) {
	var m message
	if m.decode(pkt) != nil {
		return // malformed datagram (a corrupted request too): drop, like any UDP service
	}
	if m.Kind == msgReq && n.cfg.Fault != nil && !n.cfg.Fault.Receive(uint64(n.cfg.ID), n.cfg.FaultClock(), &n.stats.Faults) {
		// Inside its stall episode the node ignores requests — no ack, so
		// the sender's RTO machinery takes over — as eventsim's handleReq
		// does. The stall sits in front of liveness.
		return
	}
	if n.downNow.Load() {
		return // a dead node neither acknowledges nor routes
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
// routes around the overload exactly as it would a lost request.
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
	i := n.reqs.lookup(m.ReqID)
	if n.reqs.seen.has(m.ReqID) || i >= 0 && n.reqs.fwdAt(i) != nil {
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
		n.stats.Shed++
		return
	}
	n.sendMsg(from, &message{Kind: msgAck, ReqID: m.ReqID})
	n.reqs.seen.add(m.ReqID)
	m.Hops++
	n.hold(m)
}

// hold is the holder state machine shared by origination and receipt:
// complete the request at its owner, or pick the first candidate and
// dispatch.
func (n *Node) hold(m *message) {
	if overlay.ID(m.Dst) == n.cfg.ID {
		n.applyOwner(m)
		return
	}
	if m.Budget == 0 {
		n.respond(m, StatusHopBudget, nil)
		return
	}
	i := n.reqs.entry(m.ReqID)
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
	n.sendReq(st)
	n.arm(&st.rto, st.id<<1, n.clock()+n.cfg.RTO)
}

// faultLatency is the one-way latency bound the fault plan's hold-backs
// are scaled by, as eventsim scales them by its transport's MaxLatency.
// The in-memory (or loopback) network delivers in microseconds, the
// simulated one in a millisecond; a small budget keeps a held request
// well under any sane RTO.
const faultLatency = 2 * time.Millisecond

// sendReq transmits st's request to its current candidate through the
// node's fault plan — the fault step of eventsim's dispatch. The plan
// decides and tallies the transmission (fault.Injector.Send, keyed as
// eventsim keys it); the node applies the fate: a cut request is dropped,
// a hold-back or delay spike becomes a delivery timer, a duplicate a
// second send, and a corruption mangled wire bytes. Acknowledgements and
// responses never meet the plan. The request counts once in ReqsOut,
// whatever the plan does to it.
func (n *Node) sendReq(st *pendingFwd) {
	to := st.cands[st.ci]
	addr := n.cfg.AddrOf(to)
	pkt := n.encode(addr, &st.msg)
	inj := n.cfg.Fault
	if pkt == nil || inj == nil {
		n.send(addr, pkt, 0)
		return
	}
	t := n.cfg.FaultClock()
	f := inj.Send(t, fault.Hop{
		T: t, From: uint64(n.cfg.ID), To: uint64(to),
		Owner: st.msg.Dst, Hops: st.msg.Hops, Try: uint8(st.try),
	}, &n.stats.Faults)
	if f.Cut {
		return
	}
	hold := time.Duration(f.Hold*float64(faultLatency)) + time.Duration((f.Delay-1)*float64(faultLatency))
	if f.Dup {
		// The receiver's dedupe window absorbs the copy, or it carries
		// the request a corrupted primary lost.
		n.send(addr, pkt, hold)
	}
	if f.Corrupt {
		// Mangle the magic or version bytes, which the receiving codec
		// rejects unconditionally — never the kind byte, whose bit flips
		// could alias another valid kind.
		pkt[f.Byte] ^= f.Mask
	}
	n.send(addr, pkt, hold)
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
	n.send(addr, n.encode(addr, m), 0)
}

// encode renders m into the node's reused buffer and counts it as sent;
// nil when there is nothing to send.
func (n *Node) encode(addr string, m *message) []byte {
	if addr == "" {
		return nil
	}
	buf, err := appendWire(n.encBuf[:0], m)
	if err != nil {
		return nil // oversized value: callers validate, so only corrupt state lands here
	}
	n.encBuf = buf[:0]
	n.stats.countOut(m.Kind)
	return buf
}

// send transmits pkt to addr after delay, best-effort. A held packet is
// copied past the buffer's reuse and goes out on the network's clock; if
// the node closes first it meets a closed transport and is dropped.
func (n *Node) send(addr string, pkt []byte, delay time.Duration) {
	switch {
	case pkt == nil:
	case delay <= 0:
		n.tr.Send(addr, pkt)
	default:
		pkt = append([]byte(nil), pkt...)
		n.clk.AfterFunc(delay, func() { n.tr.Send(addr, pkt) })
	}
}
