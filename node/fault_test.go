package node

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcm"
	"rcm/fault"
	"rcm/node/internal/clock"
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

// faultPair boots the two nodes of a 1-bit chord on a virtual network,
// both applying plan, bound to seed and a 100 s horizon, on the plan
// clock *now. Retransmission is off, so a lookup from node 0 to node 1
// sends exactly one request.
func faultPair(t *testing.T, plan string, seed uint64, now *float64) (sender, receiver *Node) {
	t.Helper()
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimNetwork()
	trs := []Transport{sim.Endpoint(), sim.Endpoint()}
	inj := mustPlan(t, plan).Bind(seed, 100)
	var nodes [2]*Node
	for i := range nodes {
		nodes[i], err = New(Config{
			Protocol:    proto,
			ID:          overlay.ID(i),
			Transport:   trs[i],
			AddrOf:      func(id overlay.ID) string { return trs[id].Addr() },
			Retransmits: -1,
			Fault:       inj,
			FaultClock:  func() float64 { return *now },
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
		t.Cleanup(nodes[i].Close)
	}
	return nodes[0], nodes[1]
}

// pairLookup issues a lookup from node 0 to node 1 of a faultPair and
// fails the test unless its delivery is want.
func pairLookup(t *testing.T, sender *Node, want bool) {
	t.Helper()
	if r := sender.Lookup(1); r.OK() != want {
		t.Fatalf("lookup 0→1: %+v, want delivered %v", r, want)
	}
}

// TestNodeFaultPlan holds each clause of a node's fault plan to what it
// does to a request from node 0 to node 1, on the receiver and on the
// counts: a request across the cut of an open partition is blackholed; a
// corrupted one fails the receiver's codec, so it never reaches ReqsIn; a
// duplicated, reordered one arrives as two decodable copies, the second
// absorbed as a DupReqs; and a stalled receiver drops requests, counted
// while it is killed too.
func TestNodeFaultPlan(t *testing.T) {
	const partition = "partition:2@10-20"
	cut := uint64(1) // a seed whose two groups part node 0 from node 1
	for pl := mustPlan(t, partition); ; cut++ {
		if inj := pl.Bind(cut, 100); inj.Group(0) != inj.Group(1) {
			break
		}
	}
	for _, tc := range []struct {
		name, plan string
		seed       uint64
		run        func(t *testing.T, sender, receiver *Node, now *float64, inj *fault.Injector)
	}{
		{"partition", partition, cut, func(t *testing.T, sender, receiver *Node, now *float64, _ *fault.Injector) {
			*now = 15 // inside the window
			pairLookup(t, sender, false)
			if got := receiver.Metrics().ReqsIn; got != 0 {
				t.Errorf("the receiver took %d requests across the cut", got)
			}
			if c := sender.Metrics().Faults; c != (fault.Counts{PartitionDrops: 1}) {
				t.Errorf("sender counts %s, want partition=1", c)
			}
			*now = 25 // the partition healed
			pairLookup(t, sender, true)
			if got := receiver.Metrics().ReqsIn; got != 1 {
				t.Errorf("the receiver took %d requests after the heal, want 1", got)
			}
		}},
		{"corrupt", "corrupt:1", 3, func(t *testing.T, sender, receiver *Node, _ *float64, _ *fault.Injector) {
			pairLookup(t, sender, false)
			if got := receiver.Metrics().ReqsIn; got != 0 {
				t.Errorf("a corrupted request decoded: the receiver took %d", got)
			}
			if c := sender.Metrics().Faults; c != (fault.Counts{Corrupts: 1}) {
				t.Errorf("sender counts %s, want corrupt=1", c)
			}
		}},
		{"dup+reorder", "dup:1,reorder:1", 9, func(t *testing.T, sender, receiver *Node, _ *float64, _ *fault.Injector) {
			pairLookup(t, sender, true)
			if m := receiver.Metrics(); m.ReqsIn != 2 || m.DupReqs != 1 {
				t.Errorf("the receiver took %d requests, %d of them duplicates; want 2 copies, 1 duplicate", m.ReqsIn, m.DupReqs)
			}
			if m := sender.Metrics(); m.Faults != (fault.Counts{Dups: 1, Reorders: 1}) || m.AcksIn != 2 {
				t.Errorf("sender counts %s and %d acks, want dup=1 reorder=1 and an ack per copy", m.Faults, m.AcksIn)
			}
		}},
		{"stall", "stall:1:10", 11, func(t *testing.T, sender, receiver *Node, now *float64, inj *fault.Injector) {
			win, ok := inj.StallWindow(1)
			if !ok {
				t.Fatal("stall:1 placed no episode")
			}
			received := func(stalls, reqs uint64) {
				t.Helper()
				if m := receiver.Metrics(); m.Faults != (fault.Counts{StallDrops: stalls}) || m.ReqsIn != reqs {
					t.Errorf("receiver counts %s and took %d requests, want stall=%d and %d", m.Faults, m.ReqsIn, stalls, reqs)
				}
			}
			*now = (win.From + win.To) / 2 // mid-episode
			pairLookup(t, sender, false)
			received(1, 0)
			receiver.Kill() // the stall sits in front of liveness
			pairLookup(t, sender, false)
			received(2, 0)
			receiver.Restart()
			*now = win.To + 1 // episode over
			pairLookup(t, sender, true)
			received(2, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now float64
			sender, receiver := faultPair(t, tc.plan, tc.seed, &now)
			tc.run(t, sender, receiver, &now, mustPlan(t, tc.plan).Bind(tc.seed, 100))
		})
	}
}

// pullOnly hides a transport's push capability, so a node started on it
// runs a pump goroutine blocking in Recv, as it does on a socket.
type pullOnly struct{ Transport }

// TestFaultTransportStall: during its stall episode a node swallows
// inbound requests (no ack ever forms — the sender's RTO takes over) but
// still takes acks; outside the episode the plan is transparent. Both
// ways a transport feeds a node are held to it: the pump blocking in
// Recv, and the push path an in-memory endpoint delivers by.
func TestFaultTransportStall(t *testing.T) {
	const self = 1 // owns key 1 in a 1-bit chord
	inj := mustPlan(t, "stall:1:10").Bind(11, 100)
	win, ok := inj.StallWindow(self)
	if !ok {
		t.Fatal("stall:1 placed no episode")
	}
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"recv", "push"} {
		t.Run(path, func(t *testing.T) {
			mem := NewMemNetwork()
			probe := mem.Endpoint()
			var tr Transport = mem.Endpoint()
			if path == "recv" {
				tr = pullOnly{tr}
			}
			var now atomic.Uint64 // the plan clock's float64 bits
			nd, err := New(Config{
				Protocol:   proto,
				ID:         self,
				Transport:  tr,
				AddrOf:     func(overlay.ID) string { return "" },
				Fault:      inj,
				FaultClock: func() float64 { return math.Float64frombits(now.Load()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			nd.Start()
			t.Cleanup(func() { nd.Close(); probe.Close() })
			giveUp := time.AfterFunc(5*time.Second, func() { probe.Close() })
			defer giveUp.Stop()
			send := func(m *message) {
				t.Helper()
				pkt, err := appendWire(nil, m)
				if err != nil {
					t.Fatal(err)
				}
				if err := probe.Send(nd.Addr(), pkt); err != nil {
					t.Fatal(err)
				}
			}
			req := func(reqID uint64) *message {
				return &message{Kind: msgReq, Op: OpLookup, Budget: 16, ReqID: reqID, Dst: self, Deadline: 3000, Origin: probe.Addr()}
			}

			now.Store(math.Float64bits((win.From + win.To) / 2)) // mid-episode
			send(req(1))
			send(&message{Kind: msgAck, ReqID: 7})
			m := nd.Metrics()
			for deadline := time.Now().Add(5 * time.Second); m.AcksIn == 0 && time.Now().Before(deadline); m = nd.Metrics() {
				time.Sleep(time.Millisecond)
			}
			if m.AcksIn != 1 {
				t.Fatalf("stalled node took %d acks, want the ack sent after the request", m.AcksIn)
			}
			if m.Faults != (fault.Counts{StallDrops: 1}) || m.ReqsIn != 0 {
				t.Fatalf("stalled node counts %s and took %d requests, want stall=1 and none", m.Faults, m.ReqsIn)
			}

			now.Store(math.Float64bits(win.To + 1)) // episode over
			send(req(2))
			for _, want := range []uint8{msgAck, msgResp} {
				reply, _, err := probe.Recv()
				if err != nil {
					t.Fatalf("waiting for kind %d: %v", want, err)
				}
				// An ack for request 1 here would mean the stalled request formed one.
				if m, err := decodeWire(reply); err != nil || m.Kind != want || m.ReqID != 2 {
					t.Fatalf("post-episode reply kind=%d reqID=%d (err %v), want kind %d for request 2", m.Kind, m.ReqID, err, want)
				}
			}
			if m := nd.Metrics(); m.Faults != (fault.Counts{StallDrops: 1}) || m.ReqsIn != 1 {
				t.Errorf("after the episode: counts %s and %d requests taken, want stall=1 and 1", m.Faults, m.ReqsIn)
			}
		})
	}
}

// TestWrapFaultValidation: New takes a fault plan only with its plan
// clock, and a plan clock only with a plan. An empty or invalid plan
// never reaches a node: fault.Parse rejects both (TestParseErrors), and
// cluster.New fails with its error (TestClusterFaultInteractive).
func TestWrapFaultValidation(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemNetwork().Endpoint()
	t.Cleanup(func() { tr.Close() })
	base := Config{Protocol: proto, Transport: tr, AddrOf: func(overlay.ID) string { return "" }}
	if _, err := New(base); err != nil {
		t.Fatalf("a config without a plan: %v", err)
	}
	for name, tweak := range map[string]func(*Config){
		"plan without clock": func(c *Config) { c.Fault = mustPlan(t, "dup:0.5").Bind(1, 100) },
		"clock without plan": func(c *Config) { c.FaultClock = func() float64 { return 0 } },
	} {
		cfg := base
		tweak(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// bootFaultCluster is bootCluster with per-node config tweaks and a
// fault plan: plan == "" runs none.
func bootFaultCluster(t *testing.T, protocol string, bits int, plan string, tweak func(*Config)) []*Node {
	t.Helper()
	return bootFaultNet(t, NewMemNetwork(), protocol, bits, plan, tweak)
}

// bootFaultNet is bootFaultCluster on the given network. Every node
// applies the plan, bound once (seed 7, a 3600 s horizon), on the
// network's seconds since boot.
func bootFaultNet(t *testing.T, mem *MemNetwork, protocol string, bits int, plan string, tweak func(*Config)) []*Node {
	t.Helper()
	proto, err := rcm.NewProtocol(protocol, rcm.Config{Bits: bits, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := int(proto.Space().Size())
	addrs := make([]string, n)
	transports := make([]Transport, n)
	for i := range transports {
		transports[i] = mem.Endpoint()
		addrs[i] = transports[i].Addr()
	}
	var (
		inj       *fault.Injector
		planClock func() float64
	)
	if plan != "" {
		clk := clock.Of(transports[0])
		boot := clk.Now()
		inj = mustPlan(t, plan).Bind(7, 3600)
		planClock = func() float64 { return (clk.Now() - boot).Seconds() }
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{
			Protocol:   proto,
			ID:         overlay.ID(i),
			Transport:  transports[i],
			AddrOf:     func(id overlay.ID) string { return addrs[id] },
			RTO:        20 * time.Millisecond,
			Deadline:   3 * time.Second,
			Fault:      inj,
			FaultClock: planClock,
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
	return nodes
}

// mergedMetrics merges every node's snapshot, fault tallies included.
func mergedMetrics(nodes []*Node) Metrics {
	all := make([]Metrics, len(nodes))
	for i, nd := range nodes {
		all[i] = nd.Metrics()
	}
	return MergeMetrics(all...)
}

// TestFaultClusterDupReorder: a live cluster whose every node duplicates
// and reorders half the requests it sends still completes all-pairs
// lookups — the dedupe window absorbs the copies (visible as DupReqs) and
// held packets are merely late, never lost.
func TestFaultClusterDupReorder(t *testing.T) {
	nodes := bootFaultCluster(t, "chord", 3, "dup:0.5,reorder:0.5", nil)
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
	agg := mergedMetrics(nodes)
	if c := agg.Faults; c.Dups == 0 || c.Reorders == 0 {
		t.Fatalf("dup:0.5,reorder:0.5 over 56 lookups injected nothing: %s", c)
	}
	if agg.DupReqs == 0 {
		t.Errorf("injected %d dups but no node counted a duplicate delivery", agg.Faults.Dups)
	}
}

// TestShedUnderOverload: a node whose forward table is at maxInFlight
// sheds fresh relayed requests silently — no ack, so the sender's RTO
// machinery treats the hop as lossy — and counts them. Requests the
// node owns are served regardless.
func TestShedUnderOverload(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	relayTr := mem.Endpoint()
	probeTr := mem.Endpoint() // the test's own endpoint
	t.Cleanup(func() { relayTr.Close(); probeTr.Close() })
	relay, err := New(Config{
		Protocol:  proto,
		ID:        0,
		Transport: relayTr,
		AddrOf:    func(overlay.ID) string { return "" },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the test goroutine is the node's loop. Fill the
	// forward table with attempts no ack will retire…
	for id := uint64(1 << 32); relay.reqs.fwds.inUse() < maxInFlight; id++ {
		relay.reqs.addFwd(relay.reqs.entry(id))
	}
	req := func(reqID, dst uint64) *message {
		return &message{Kind: msgReq, Op: OpLookup, Budget: 16, ReqID: reqID, Dst: dst, Deadline: 2000, Origin: probeTr.Addr()}
	}
	// …so a relayed request is shed: no ack, just a counter.
	relay.handleReq(req(0xf2, 1), probeTr.Addr())
	if s := relay.stats; s.Shed != 1 || s.AcksOut != 0 {
		t.Fatalf("relayed request at a full table: shed %d, acks out %d; want 1 shed and no ack", s.Shed, s.AcksOut)
	}
	if n := relay.reqs.fwds.inUse(); n != maxInFlight {
		t.Fatalf("forward table holds %d attempts after the shed, want %d", n, maxInFlight)
	}
	// A request the relay owns is never shed, even with the table full.
	relay.handleReq(req(0xf3, 0), probeTr.Addr())
	if m, err := decodeWire(recvOne(t, probeTr, time.Second)); err != nil || m.Kind != msgAck || m.ReqID != 0xf3 {
		t.Fatalf("owner-addressed request should be acked: kind=%d reqID=%#x err=%v", m.Kind, m.ReqID, err)
	}
	if s := relay.stats; s.Shed != 1 || s.RespsOut != 1 {
		t.Fatalf("owner-addressed request at a full table: shed %d, responses %d; want it answered, not shed", s.Shed, s.RespsOut)
	}
}

// TestKillWithInFlightRTOs is the timer-hygiene regression (run under
// -race): Kill a node while dozens of RTOs sit in its timer queue — Kill
// must empty the queue, and the clock timer's wake-up that still comes
// must find nothing — then restart it, serve traffic, and Close it with
// the queue empty.
func TestKillWithInFlightRTOs(t *testing.T) {
	nodes := bootFaultCluster(t, "chord", 4, "", func(cfg *Config) {
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
// most seenCap seen ids, one index slot for each — its timer queue is
// empty, and every pooled record is back on its free list. Call it while
// nothing steps nd.
func checkDrained(t *testing.T, when string, nd *Node) {
	t.Helper()
	tb := &nd.reqs
	entries := 0
	for i := range tb.slots {
		if tb.slots[i].empty() {
			continue
		}
		entries++
		if st, w := tb.fwdAt(i), tb.waitAt(i); st != nil || w != nil {
			t.Errorf("%s: node %d still holds request %#x (forward %v, origin %v)", when, nd.ID(), tb.slots[i].key, st != nil, w != nil)
		}
	}
	if entries != 0 || tb.used != 0 {
		t.Errorf("%s: node %d has %d entries (%d counted used); want none", when, nd.ID(), entries, tb.used)
	}
	seen := 0
	for _, s := range tb.seen.index {
		if s != 0 {
			seen++
		}
	}
	if seen > seenCap || seen != len(tb.seen.ring) {
		t.Errorf("%s: node %d has %d seen ids and a window of %d; want equal and at most %d", when, nd.ID(), seen, len(tb.seen.ring), seenCap)
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
	nodes := bootFaultNet(t, sim, "chord", 6, "dup:0.3,reorder:0.3,partition:2@1-3", nil)
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
	c := mergedMetrics(nodes).Faults
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
