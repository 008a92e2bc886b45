package node

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcm"
	"rcm/fault"
	"rcm/overlay"
)

// mustPlan parses a fault plan or fails the test.
func mustPlan(t *testing.T, s string) fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fakeClock is a settable plan clock for transport-level tests.
type fakeClock struct{ t atomic.Uint64 }

func (c *fakeClock) set(t float64) { c.t.Store(uint64(t * 1000)) }
func (c *fakeClock) now() float64  { return float64(c.t.Load()) / 1000 }

// recvOne pulls one packet from tr, failing the test if none arrives in
// time.
func recvOne(t *testing.T, tr Transport, within time.Duration) []byte {
	t.Helper()
	type rcv struct {
		pkt []byte
		err error
	}
	ch := make(chan rcv, 1)
	go func() {
		pkt, _, err := tr.Recv()
		ch <- rcv{pkt, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.pkt
	case <-time.After(within):
		t.Fatalf("no packet within %v", within)
		return nil
	}
}

// reqPacket encodes a minimal request datagram.
func reqPacket(t *testing.T, reqID, dst uint64, origin string) []byte {
	t.Helper()
	pkt, err := appendWire(nil, &message{
		Kind: msgReq, Op: OpLookup, Budget: 16,
		ReqID: reqID, Dst: dst, Deadline: 2000, Origin: origin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// ackPacket encodes an ack datagram (never faulted).
func ackPacket(t *testing.T, reqID uint64) []byte {
	t.Helper()
	pkt, err := appendWire(nil, &message{Kind: msgAck, ReqID: reqID})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestFaultTransportPartition: cross-partition requests are blackholed
// during the window — in order, so a following (unfaulted) ack overtakes
// nothing — and pass once the window closes. The wrapper's grouping must
// agree with the plan's own injector: that is the sim↔live contract.
func TestFaultTransportPartition(t *testing.T) {
	plan := mustPlan(t, "partition:2@10-20")
	inj := plan.Bind(7, 100)
	// Find two identifiers the cut separates.
	var a, b uint64
	found := false
	for i := uint64(1); i < 64 && !found; i++ {
		if inj.Group(i) != inj.Group(0) {
			a, b, found = 0, i, true
		}
	}
	if !found {
		t.Fatal("partition:2 left 64 ids in one group")
	}
	mem := NewMemNetwork()
	sender, receiver := mem.Endpoint(), mem.Endpoint()
	clk := &fakeClock{}
	ft, err := WrapFault(sender, FaultConfig{
		Plan: plan, Seed: 7, Horizon: 100, Self: a,
		IDOf: func(addr string) (uint64, bool) { return b, addr == receiver.Addr() },
		Now:  clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ft.Close() })

	clk.set(15) // inside the window
	if err := ft.Send(receiver.Addr(), reqPacket(t, 1, b, ft.Addr())); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(receiver.Addr(), ackPacket(t, 1)); err != nil {
		t.Fatal(err)
	}
	if m, err := decodeWire(recvOne(t, receiver, time.Second)); err != nil || m.Kind != msgAck {
		t.Fatalf("first delivery should be the ack (req blackholed), got kind=%d err=%v", m.Kind, err)
	}
	if c := ft.Counts(); c.PartitionDrops != 1 {
		t.Fatalf("partition drops = %d, want 1: %s", c.PartitionDrops, c)
	}

	clk.set(25) // window closed: the partition healed
	if err := ft.Send(receiver.Addr(), reqPacket(t, 2, b, ft.Addr())); err != nil {
		t.Fatal(err)
	}
	if m, err := decodeWire(recvOne(t, receiver, time.Second)); err != nil || m.Kind != msgReq || m.ReqID != 2 {
		t.Fatalf("post-heal request not delivered: kind=%d reqID=%d err=%v", m.Kind, m.ReqID, err)
	}
}

// TestFaultTransportCorrupt: corrupt:1 mangles every request into
// something the wire codec rejects, while acks pass untouched.
func TestFaultTransportCorrupt(t *testing.T) {
	mem := NewMemNetwork()
	sender, receiver := mem.Endpoint(), mem.Endpoint()
	ft, err := WrapFault(sender, FaultConfig{Plan: mustPlan(t, "corrupt:1"), Seed: 3, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ft.Close() })

	if err := ft.Send(receiver.Addr(), reqPacket(t, 1, 5, ft.Addr())); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWire(recvOne(t, receiver, time.Second)); err == nil {
		t.Fatal("corrupted request decoded cleanly")
	}
	if err := ft.Send(receiver.Addr(), ackPacket(t, 1)); err != nil {
		t.Fatal(err)
	}
	if m, err := decodeWire(recvOne(t, receiver, time.Second)); err != nil || m.Kind != msgAck {
		t.Fatalf("ack should pass untouched: kind=%d err=%v", m.Kind, err)
	}
	if c := ft.Counts(); c.Corrupts != 1 {
		t.Fatalf("corrupts = %d, want 1", c.Corrupts)
	}
}

// TestFaultTransportDupReorder: dup:1 delivers two decodable copies of
// every request; reorder:1 holds them back but loses nothing.
func TestFaultTransportDupReorder(t *testing.T) {
	mem := NewMemNetwork()
	sender, receiver := mem.Endpoint(), mem.Endpoint()
	ft, err := WrapFault(sender, FaultConfig{
		Plan: mustPlan(t, "dup:1,reorder:1"), Seed: 9, Self: 1,
		Latency: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ft.Close() })

	if err := ft.Send(receiver.Addr(), reqPacket(t, 42, 5, ft.Addr())); err != nil {
		t.Fatal(err)
	}
	for copies := 0; copies < 2; copies++ {
		m, err := decodeWire(recvOne(t, receiver, time.Second))
		if err != nil || m.Kind != msgReq || m.ReqID != 42 {
			t.Fatalf("copy %d: kind=%d reqID=%d err=%v", copies, m.Kind, m.ReqID, err)
		}
	}
	if c := ft.Counts(); c.Dups != 1 || c.Reorders != 1 {
		t.Fatalf("counts = %s, want dup=1 reorder=1", c)
	}
}

// TestFaultTransportStall: during its stall episode a node's wrapper
// swallows inbound requests (no ack ever forms — the sender's RTO takes
// over) but still delivers acks and responses; outside the episode it is
// transparent. Both ways in are held to it: Recv, and the push path an
// attached node is fed by.
func TestFaultTransportStall(t *testing.T) {
	const self = 5
	plan := mustPlan(t, "stall:1:10")
	win, ok := plan.Bind(11, 100).StallWindow(self)
	if !ok {
		t.Fatal("stall:1 placed no episode")
	}
	for _, path := range []string{"recv", "push"} {
		t.Run(path, func(t *testing.T) {
			mem := NewMemNetwork()
			sender, receiver := mem.Endpoint(), mem.Endpoint()
			clk := &fakeClock{}
			ft, err := WrapFault(receiver, FaultConfig{
				Plan: plan, Seed: 11, Horizon: 100, Self: self, Now: clk.now,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ft.Close() })
			next := func() []byte { return recvOne(t, ft, time.Second) }
			if path == "push" {
				pushed := make(chan []byte, 4)
				if !ft.attach(func(pkt []byte, _ string) { pushed <- pkt }) {
					t.Fatal("a fault wrapper around a mem endpoint cannot push")
				}
				next = func() []byte {
					select {
					case pkt := <-pushed:
						return pkt
					case <-time.After(time.Second):
						t.Fatal("nothing pushed within 1s")
						return nil
					}
				}
			}

			clk.set((win.From + win.To) / 2) // mid-episode
			if err := sender.Send(ft.Addr(), reqPacket(t, 1, self, sender.Addr())); err != nil {
				t.Fatal(err)
			}
			if err := sender.Send(ft.Addr(), ackPacket(t, 1)); err != nil {
				t.Fatal(err)
			}
			if m, err := decodeWire(next()); err != nil || m.Kind != msgAck {
				t.Fatalf("stalled node should still see the ack first, got kind=%d err=%v", m.Kind, err)
			}
			if c := ft.Counts(); c.StallDrops != 1 {
				t.Fatalf("stall drops = %d, want 1", c.StallDrops)
			}

			clk.set(win.To + 1) // episode over
			if err := sender.Send(ft.Addr(), reqPacket(t, 2, self, sender.Addr())); err != nil {
				t.Fatal(err)
			}
			if m, err := decodeWire(next()); err != nil || m.Kind != msgReq || m.ReqID != 2 {
				t.Fatalf("post-episode request not delivered: kind=%d reqID=%d err=%v", m.Kind, m.ReqID, err)
			}
		})
	}
}

// TestWrapFaultValidation: the constructor rejects unusable configs.
func TestWrapFaultValidation(t *testing.T) {
	mem := NewMemNetwork()
	tr := mem.Endpoint()
	t.Cleanup(func() { tr.Close() })
	cases := map[string]struct {
		inner Transport
		fc    FaultConfig
	}{
		"nil inner":            {nil, FaultConfig{Plan: mustPlan(t, "dup:0.5")}},
		"empty plan":           {tr, FaultConfig{}},
		"invalid plan":         {tr, FaultConfig{Plan: fault.Plan{Dup: 1.5}}},
		"partition needs IDOf": {tr, FaultConfig{Plan: mustPlan(t, "partition:2@1-2")}},
	}
	for name, tc := range cases {
		if _, err := WrapFault(tc.inner, tc.fc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// bootFaultCluster is bootCluster with per-node config tweaks and fault
// wrapping: plan == "" runs plain transports.
func bootFaultCluster(t *testing.T, protocol string, bits int, plan string, tweak func(*Config)) ([]*Node, []*FaultTransport) {
	t.Helper()
	return bootFaultNet(t, NewMemNetwork(), protocol, bits, plan, tweak)
}

// bootFaultNet is bootFaultCluster on the given network.
func bootFaultNet(t *testing.T, mem *MemNetwork, protocol string, bits int, plan string, tweak func(*Config)) ([]*Node, []*FaultTransport) {
	t.Helper()
	proto, err := rcm.NewProtocol(protocol, rcm.Config{Bits: bits, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := int(proto.Space().Size())
	addrs := make([]string, n)
	transports := make([]Transport, n)
	var wrappers []*FaultTransport
	addrToID := make(map[string]uint64, n)
	for i := range transports {
		transports[i] = mem.Endpoint()
		addrs[i] = transports[i].Addr()
		addrToID[addrs[i]] = uint64(i)
	}
	if plan != "" {
		pl := mustPlan(t, plan)
		for i := range transports {
			ft, err := WrapFault(transports[i], FaultConfig{
				Plan: pl, Seed: 7, Horizon: 3600, Self: uint64(i),
				IDOf:    func(addr string) (uint64, bool) { id, ok := addrToID[addr]; return id, ok },
				Latency: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			transports[i] = ft
			wrappers = append(wrappers, ft)
		}
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: transports[i],
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
			RTO:       20 * time.Millisecond,
			Deadline:  3 * time.Second,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		nd.Start()
	}
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *Node) { defer wg.Done(); nd.Close() }(nd)
		}
		wg.Wait()
	})
	return nodes, wrappers
}

// TestFaultClusterDupReorder: a live cluster whose every link duplicates
// and reorders half its requests still completes all-pairs lookups —
// the dedupe window absorbs the copies (visible as DupReqs) and held
// packets are merely late, never lost.
func TestFaultClusterDupReorder(t *testing.T) {
	nodes, wrappers := bootFaultCluster(t, "chord", 3, "dup:0.5,reorder:0.5", nil)
	for src := range nodes {
		for dst := range nodes {
			if src == dst {
				continue
			}
			if r := nodes[src].Lookup(overlay.ID(dst)); !r.OK() {
				t.Fatalf("lookup %d->%d under dup+reorder: %+v", src, dst, r)
			}
		}
	}
	var c fault.Counts
	for _, ft := range wrappers {
		c.Add(ft.Counts())
	}
	if c.Dups == 0 || c.Reorders == 0 {
		t.Fatalf("dup:0.5,reorder:0.5 over 56 lookups injected nothing: %s", c)
	}
	all := make([]Metrics, len(nodes))
	for i, nd := range nodes {
		all[i] = nd.Metrics()
	}
	if agg := MergeMetrics(all...); agg.DupReqs == 0 {
		t.Errorf("injected %d dups but no node counted a duplicate delivery", c.Dups)
	}
}

// TestShedUnderOverload: a node whose forward table is at MaxInFlight
// sheds fresh relayed requests silently — no ack, so the sender's RTO
// machinery treats the hop as lossy — and counts them. Requests the
// node owns are served regardless.
func TestShedUnderOverload(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	relayTr := mem.Endpoint() // node 0, the relay under test
	deadTr := mem.Endpoint()  // node 1's address: nobody acks
	probeTr := mem.Endpoint() // the test's own endpoint
	t.Cleanup(func() { deadTr.Close(); probeTr.Close() })
	addrs := []string{relayTr.Addr(), deadTr.Addr()}
	relay, err := New(Config{
		Protocol:    proto,
		ID:          0,
		Transport:   relayTr,
		AddrOf:      func(id overlay.ID) string { return addrs[id] },
		RTO:         500 * time.Millisecond, // keep the table occupied
		Deadline:    5 * time.Second,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay.Start()
	t.Cleanup(relay.Close)

	// First relayed request fills the table (node 1 never acks)…
	if err := probeTr.Send(relay.Addr(), reqPacket(t, 0xf1, 1, probeTr.Addr())); err != nil {
		t.Fatal(err)
	}
	if m, err := decodeWire(recvOne(t, probeTr, time.Second)); err != nil || m.Kind != msgAck || m.ReqID != 0xf1 {
		t.Fatalf("relay should ack the accepted request: kind=%d reqID=%#x err=%v", m.Kind, m.ReqID, err)
	}
	// …so the second is shed: no ack, just a counter.
	if err := probeTr.Send(relay.Addr(), reqPacket(t, 0xf2, 1, probeTr.Addr())); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := relay.Metrics()
		if m.Shed == 1 {
			if m.InFlight != 1 {
				t.Fatalf("in-flight = %d, want the one accepted request", m.InFlight)
			}
			if m.AcksOut != 1 {
				t.Fatalf("acks out = %d: the shed request must not be acknowledged", m.AcksOut)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed counter never fired: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A request the relay owns is never shed, even with the table full.
	if err := probeTr.Send(relay.Addr(), reqPacket(t, 0xf3, 0, probeTr.Addr())); err != nil {
		t.Fatal(err)
	}
	sawAck := false
	for !sawAck {
		m, err := decodeWire(recvOne(t, probeTr, 2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == msgAck && m.ReqID == 0xf3 {
			sawAck = true
		}
	}
}

// TestAdaptiveRTOLiveCluster: with the per-peer estimator on, a healthy
// cluster completes all-pairs lookups, and a killed destination still
// produces a timely verdict (the adaptive timeout may probe faster than
// the fixed RTO, never slower than 8x).
func TestAdaptiveRTOLiveCluster(t *testing.T) {
	nodes, _ := bootFaultCluster(t, "chord", 3, "", func(cfg *Config) {
		cfg.AdaptiveRTO = true
		cfg.Deadline = 2 * time.Second
	})
	for src := range nodes {
		for dst := range nodes {
			if src == dst {
				continue
			}
			if r := nodes[src].Lookup(overlay.ID(dst)); !r.OK() {
				t.Fatalf("lookup %d->%d with adaptive RTO: %+v", src, dst, r)
			}
		}
	}
	victim := len(nodes) - 1
	nodes[victim].Kill()
	r := nodes[0].Lookup(overlay.ID(victim))
	if r.OK() {
		t.Fatalf("lookup to killed node succeeded: %+v", r)
	}
	if r.Err == nil && r.Status != StatusNoRoute && r.Status != StatusExpired {
		t.Fatalf("unexpected verdict for killed destination: %+v", r)
	}
}

// TestKarnAcrossFailover: acks name a request, not the peer that sent
// them, so a slow (not lost) ack from the candidate the holder just
// gave up on arrives looking like an instant answer from the next one.
// It must retire the attempt without seeding that peer's estimator —
// a near-zero RTT there would make its next timeouts spurious.
func TestKarnAcrossFailover(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const dst = 3
	cands := proto.(rcm.Forwarder).AppendCandidateHops(nil, 0, dst)
	if len(cands) < 2 {
		t.Fatalf("node 0 has %d candidates toward %d, need 2", len(cands), dst)
	}
	mem := NewMemNetwork()
	trs := make([]Transport, 4) // node 0 is the relay under test, the rest are the test's
	for i := range trs {
		trs[i] = mem.Endpoint()
	}
	probeTr := mem.Endpoint()
	t.Cleanup(func() {
		for _, tr := range append(trs[1:], probeTr) {
			tr.Close()
		}
	})
	relay, err := New(Config{
		Protocol:    proto,
		ID:          0,
		Transport:   trs[0],
		AddrOf:      func(id overlay.ID) string { return trs[id].Addr() },
		RTO:         100 * time.Millisecond,
		Retransmits: -1,
		AdaptiveRTO: true,
		Deadline:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay.Start()
	t.Cleanup(relay.Close)

	if err := probeTr.Send(relay.Addr(), reqPacket(t, 0xa1, dst, probeTr.Addr())); err != nil {
		t.Fatal(err)
	}
	// Candidate 0 holds its ack back past the RTO; the request reaching
	// candidate 1 is the failover.
	for _, c := range cands[:2] {
		if m, err := decodeWire(recvOne(t, trs[c], time.Second)); err != nil || m.Kind != msgReq || m.ReqID != 0xa1 {
			t.Fatalf("candidate %d should see the request: kind=%d reqID=%#x err=%v", c, m.Kind, m.ReqID, err)
		}
	}
	if err := trs[cands[0]].Send(relay.Addr(), ackPacket(t, 0xa1)); err != nil {
		t.Fatal(err)
	}
	// The inbox is FIFO: this runs on the loop after the ack is handled.
	type state struct {
		pending int
		seeded  bool
	}
	got := make(chan state, 1)
	relay.post(func() {
		_, seeded := relay.rtt[cands[1]]
		got <- state{relay.reqs.fwds.inUse(), seeded}
	})
	if s := <-got; s.pending != 0 || s.seeded {
		t.Fatalf("late ack from candidate %d after failover to %d: pending=%d (want 0, retired), estimator for %d seeded=%v (want false)",
			cands[0], cands[1], s.pending, cands[1], s.seeded)
	}
}

// TestRTTMapBounded: the adaptive-RTO estimators are loop-owned state
// keyed by every candidate a node has timed, so 10 000 distinct peers
// acknowledged in turn must leave at most seenCap of them.
func TestRTTMapBounded(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Protocol:    proto,
		ID:          0,
		Transport:   NewMemNetwork().Endpoint(),
		AddrOf:      func(overlay.ID) string { return "" },
		AdaptiveRTO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the test goroutine is the node's loop.
	for peer := 0; peer < 10000; peer++ {
		reqID := uint64(peer + 1)
		st := nd.reqs.addFwd(nd.reqs.entry(reqID))
		st.cands = append(st.cands, overlay.ID(peer))
		nd.handleAck(&message{Kind: msgAck, ReqID: reqID})
		if len(nd.rtt) > seenCap {
			t.Fatalf("after %d peers the RTT map holds %d estimators, cap %d", peer+1, len(nd.rtt), seenCap)
		}
	}
}

// TestKillWithInFlightRTOs is the timer-hygiene regression (run under
// -race): Kill a node while dozens of RTOs sit in its timer queue — Kill
// must empty the queue, and the clock timer's wake-up that still comes
// must find nothing — then restart it, serve traffic, and Close it with
// the queue empty.
func TestKillWithInFlightRTOs(t *testing.T) {
	nodes, _ := bootFaultCluster(t, "chord", 4, "", func(cfg *Config) {
		cfg.RTO = 10 * time.Millisecond
		cfg.Deadline = time.Second
	})
	victim := 1 // node 0's successor: node 0 forwards clockwise traffic through it
	nodes[victim].Kill()

	const inflight = 48
	var wg sync.WaitGroup
	results := make([]Result, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every lookup targets the dead successor, so node 0 piles up
			// pending forwards whose RTOs are ticking.
			results[i] = nodes[0].Lookup(overlay.ID(victim))
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the forwards dispatch and arm timers
	nodes[0].Kill()                  // crash with the timers in flight
	wg.Wait()
	for i, r := range results {
		if r.OK() {
			t.Fatalf("lookup %d to a dead node succeeded: %+v", i, r)
		}
	}
	if n := timersOnLoop(t, nodes[0]); n != 0 {
		t.Fatalf("after Kill: %d timers queued, want 0", n)
	}
	nodes[0].Restart()
	nodes[victim].Restart()
	if r := nodes[0].Lookup(overlay.ID(victim)); !r.OK() {
		t.Fatalf("restarted pair cannot route: %+v", r)
	}
	if n := timersOnLoop(t, nodes[0]); n != 0 { // the ack took the RTO, the response the guard
		t.Fatalf("after a completed lookup: %d timers queued, want 0", n)
	}
	nodes[0].Close()
	if n := nodes[0].timers.Len(); n != 0 { // the loop has exited: Close waited for it
		t.Fatalf("after Close: %d timers queued, want 0", n)
	}
}

// checkDrained fails unless nd's request table holds nothing but its
// dedupe window — no forward or origin role, no entry without a role, at
// most seenCap seen ids — its timer queue is empty, and every pooled
// record is back on its free list. Call it while nothing steps nd.
func checkDrained(t *testing.T, when string, nd *Node) {
	t.Helper()
	tb := &nd.reqs
	seen := 0
	for i := range tb.slots {
		if tb.slots[i].empty() {
			continue
		}
		if st, w := tb.fwdAt(i), tb.waitAt(i); st != nil || w != nil {
			t.Errorf("%s: node %d still holds request %#x (forward %v, origin %v)", when, nd.ID(), tb.slots[i].key, st != nil, w != nil)
		}
		if tb.seen(i) {
			seen++
		}
	}
	if seen > seenCap || seen != len(tb.ring) || tb.used != seen {
		t.Errorf("%s: node %d has %d seen ids, a window of %d and %d entries; want equal and at most %d", when, nd.ID(), seen, len(tb.ring), tb.used, seenCap)
	}
	if n := nd.timers.Len(); n != 0 {
		t.Errorf("%s: node %d has %d timers queued", when, nd.ID(), n)
	}
	if len(tb.fwds.free) != len(tb.fwds.recs) || len(tb.waits.free) != len(tb.waits.recs) {
		t.Errorf("%s: node %d recycled %d of %d forward and %d of %d origin records", when, nd.ID(),
			len(tb.fwds.free), len(tb.fwds.recs), len(tb.waits.free), len(tb.waits.recs))
	}
}

// TestRequestTableDrains holds the live node to its per-request
// invariants on virtual time: once a replay of over a thousand mixed
// lookups, gets and puts under duplication, reordering and a two-second
// partition has run out, once a Kill has caught forward attempts and
// origins in flight, and once every node is closed, each node's request
// table holds only its dedupe window, its timer queue is empty and every
// pooled record is free again — a retire path that forgot to recycle
// fails here.
func TestRequestTableDrains(t *testing.T) {
	sim := NewSimNetwork()
	nodes, wrappers := bootFaultNet(t, sim, "chord", 6, "dup:0.3,reorder:0.3,partition:2@1-3", nil)
	rng := overlay.NewRNG(11)
	ops := 0
	for ; ops < 1000 || sim.vt.Now() < 4*time.Second; ops++ {
		src := nodes[rng.Intn(len(nodes))]
		switch key := fmt.Sprintf("k%d", rng.Intn(64)); rng.Intn(3) {
		case 0:
			src.Lookup(overlay.ID(rng.Intn(len(nodes))))
		case 1:
			src.Put(key, []byte(key))
		default:
			src.Get(key)
		}
	}
	sim.vt.Run(func() bool { return false }) // every retransmission, held copy and late ack
	var c fault.Counts
	for _, ft := range wrappers {
		c.Add(ft.Counts())
	}
	if c.Dups == 0 || c.Reorders == 0 || c.PartitionDrops == 0 {
		t.Fatalf("%d operations over %v injected too little: %s", ops, sim.vt.Now(), c)
	}
	t.Logf("%d operations over %v: %s", ops, sim.vt.Now(), c)
	for _, nd := range nodes {
		checkDrained(t, "after the replay", nd)
	}

	const victim, inflight = 1, 8 // node 0 forwards toward its successor
	nodes[victim].Kill()
	chs := make([]chan Result, inflight)
	for i := range chs {
		chs[i] = make(chan Result, 1)
		if !nodes[0].originate(chs[i], OpLookup, victim, 0, nil) {
			t.Fatal("originate on a live node refused")
		}
	}
	sim.vt.Run(func() bool { return nodes[0].reqs.fwds.inUse() == inflight })
	if n := nodes[0].timers.Len(); n != 2*inflight {
		t.Fatalf("before Kill: %d timers queued, want an RTO and a guard for each of %d lookups", n, inflight)
	}
	nodes[0].Kill()
	for i, ch := range chs {
		if r := <-ch; r.Err == nil || !strings.Contains(r.Err.Error(), "killed") {
			t.Fatalf("lookup %d in flight across Kill = %+v, want a killed error", i, r)
		}
	}
	checkDrained(t, "after Kill", nodes[0])

	for _, nd := range nodes {
		nd.Close()
	}
	for _, nd := range nodes {
		checkDrained(t, "after Close", nd)
	}
}
