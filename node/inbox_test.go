package node

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// settle returns once every turn posted to nd before the call has run:
// the inbox is one FIFO queue, so a post queued behind them runs last.
func settle(t *testing.T, nd *Node) {
	t.Helper()
	ran := make(chan struct{})
	if !nd.post(func() { close(ran) }) {
		t.Fatal("post refused by an open node")
	}
	within(t, 10*time.Second, "the turns queued before a final post", func() { <-ran })
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine <id> [running]:"
}

// TestInboxPerSenderFIFO: turns posted by one producer run in the order
// it posted them, whatever the interleaving with other producers, which
// goroutine holds the role, and where a capped holder hands the rest on.
// The log is appended to inside turns without a lock, so under -race
// this also checks that turns of one node never overlap.
func TestInboxPerSenderFIFO(t *testing.T) {
	const producers, each = 8, 1000
	nd := soloNode(t)
	var log [][2]int // turn-owned
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !nd.post(func() { log = append(log, [2]int{p, i}) }) {
					t.Errorf("producer %d: post %d refused by an open node", p, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	settle(t, nd)
	next := make([]int, producers)
	for _, e := range log {
		p, i := e[0], e[1]
		if i != next[p] {
			t.Fatalf("producer %d: turn %d ran where %d was due", p, i, next[p])
		}
		next[p]++
	}
	for p, n := range next {
		if n != each {
			t.Errorf("producer %d: %d of %d turns ran", p, n, each)
		}
	}
}

// TestInboxPacketBound: the inbox drops datagrams exactly at
// inboxPacketCap, keeps accepting posts past it, and hands all it holds
// to the first claim, in order; a closed inbox refuses everything, and
// its holder runs out what it took before keeping the role for the final
// drop.
func TestInboxPacketBound(t *testing.T) {
	in := newInbox()
	for i := 0; i < inboxPacketCap+10; i++ {
		if ok, claimed := in.put(inboxEntry{pkt: []byte{1}}, false); !ok || claimed {
			t.Fatalf("put %d into an unstarted inbox: accepted %v, claimed %v; want queued", i, ok, claimed)
		}
	}
	ran := false
	if ok, _ := in.put(inboxEntry{fn: func() { ran = true }}, false); !ok {
		t.Fatal("post refused by an open inbox")
	}
	if claimed, open := in.start(); !claimed || !open {
		t.Fatalf("start with work queued: claimed %v, open %v; want the role", claimed, open)
	}
	for i := 0; i < inboxPacketCap; i++ {
		if e, open := in.take(); e == nil || e.fn != nil || !open {
			t.Fatalf("entry %d: %+v (open %v), want a packet of the open inbox", i, e, open)
		}
	}
	e, _ := in.take()
	if e == nil || e.fn == nil {
		t.Fatal("the post queued behind a full inbox is not the last entry")
	}
	e.fn()
	if !ran {
		t.Error("the post queued behind a full inbox did not run")
	}
	if ok, claimed := in.put(inboxEntry{pkt: []byte{2}}, false); !ok || claimed {
		t.Fatalf("put into a held inbox: accepted %v, claimed %v; want queued", ok, claimed)
	}
	if in.close() {
		t.Fatal("close claimed a held role")
	}
	if ok, _ := in.put(inboxEntry{fn: func() {}}, false); ok {
		t.Error("post accepted by a closed inbox")
	}
	if e, open := in.take(); e == nil || e.fn != nil || open {
		t.Errorf("after close: %+v (open %v), want the packet queued before it, closed", e, open)
	}
	if e, open := in.take(); e != nil || open {
		t.Errorf("closed and empty: %+v (open %v), want nothing and the role kept", e, open)
	}
}

// TestInboxNoLostRun: producers that each wait for their turn to run
// before posting the next, against turns that dawdle (yield, sleep) so
// the role is forever being released as posts arrive. A post stranded in
// that window leaves its producer waiting and the test hangs; one run
// twice shows in the tally.
func TestInboxNoLostRun(t *testing.T) {
	const producers, each = 16, 400
	nd := soloNode(t)
	var runs [producers][each]int // turn-owned
	within(t, 30*time.Second, "closed-loop producers", func() {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran := make(chan struct{}, 1)
				for i := 0; i < each; i++ {
					if !nd.post(func() {
						runs[p][i]++
						if i%3 == 0 {
							runtime.Gosched()
						} else if i%64 == 1 {
							time.Sleep(50 * time.Microsecond)
						}
						ran <- struct{}{}
					}) {
						t.Error("post refused by an open node")
						return
					}
					<-ran
				}
			}()
		}
		wg.Wait()
	})
	settle(t, nd)
	for p := range runs {
		for i, n := range runs[p] {
			if n != 1 {
				t.Fatalf("producer %d: turn %d ran %d times", p, i, n)
			}
		}
	}
}

// TestInboxOneRunner: no two goroutines are ever inside one node's turn,
// whoever claims the role — waiting callers, fire-and-forget posters
// whose capped drains hand off to fresh goroutines, senders delivering
// datagrams — while Kill, Restart and Metrics ride along.
func TestInboxOneRunner(t *testing.T) {
	nd := soloNode(t)
	peer := nd.tr.(*memEndpoint).net.Endpoint()
	t.Cleanup(func() { peer.Close() })
	ack, err := appendWire(nil, &message{Kind: msgAck, ReqID: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inside, overlaps, turns atomic.Int64
	turn := func() {
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		turns.Add(1)
		runtime.Gosched()
		inside.Add(-1)
	}
	const goroutines, each = 8, 600
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch (g + i) % 4 {
				case 0:
					done := make(chan struct{}, 1)
					nd.post(func() { turn(); done <- struct{}{} })
					<-done
				case 1:
					nd.post(turn)
				case 2:
					peer.Send(nd.Addr(), ack)
					nd.post(turn)
				default:
					if i%50 == 3 {
						nd.Kill()
						nd.Restart()
					}
					nd.Metrics()
					nd.post(turn)
				}
			}
		}()
	}
	wg.Wait()
	settle(t, nd)
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d turns began while another goroutine was inside one", n)
	}
	if want := int64(goroutines * each); turns.Load() != want {
		t.Errorf("%d instrumented turns ran, want %d", turns.Load(), want)
	}
}

// TestInboxCaptureCap: a goroutine that claims the role runs at most
// drainCap turns and hands the rest, in order, to one fresh goroutine.
// Here Start's caller claims a queue three caps long.
func TestInboxCaptureCap(t *testing.T) {
	nd := unstartedSolo(t)
	const queued = 3*drainCap + 5
	ranOn := make([]string, queued) // turn-owned
	done := make(chan struct{})
	for i := 0; i < queued; i++ {
		if !nd.post(func() {
			ranOn[i] = goid()
			if i == queued-1 {
				close(done)
			}
		}) {
			t.Fatal("post refused by an open node")
		}
	}
	caller := goid()
	nd.Start()
	within(t, 10*time.Second, "the queued turns", func() { <-done })
	for i, g := range ranOn {
		if own := g == caller; own != (i < drainCap) {
			t.Fatalf("turn %d ran on the claiming goroutine: %v; want exactly the first %d there", i, own, drainCap)
		}
		if i > drainCap && g != ranOn[drainCap] {
			t.Fatalf("turns %d and %d ran on different fresh goroutines: the hand-off is one goroutine", drainCap, i)
		}
	}
}

// TestInboxBorrowedPacket: an in-memory sender lends its buffer for the
// length of Send, and may overwrite it the moment Send returns. A
// datagram that reaches a busy receiver waits as a copy, so it still
// decodes to the original bytes; one that reaches an idle receiver is
// decoded, and answered, before Send returns.
func TestInboxBorrowedPacket(t *testing.T) {
	nd := soloNode(t)
	peer := nd.tr.(*memEndpoint).net.Endpoint()
	t.Cleanup(func() { peer.Close() })
	box := peer.(*memEndpoint).mailbox()
	req := func(id uint64) message {
		return message{Kind: msgReq, Op: OpLookup, Budget: 4, ReqID: id, Dst: uint64(nd.ID()), Deadline: 1000, Origin: peer.Addr()}
	}
	// answered reads the owner's acknowledgement and response to id.
	answered := func(id uint64) {
		t.Helper()
		for _, kind := range []uint8{msgAck, msgResp} {
			var pkt []byte
			within(t, 5*time.Second, "the owner's answer", func() { pkt, _, _ = peer.Recv() })
			m, err := decodeWire(pkt)
			if err != nil || m.Kind != kind || m.ReqID != id {
				t.Fatalf("answer to request %#x: %+v (%v), want kind %d", id, m, err, kind)
			}
		}
	}
	var buf []byte
	var sent [][]byte // what each send lent, as it was
	send := func(m message) {
		t.Helper()
		var err error
		if buf, err = appendWire(buf[:0], &m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, bytes.Clone(buf))
		if err := peer.Send(nd.Addr(), buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff // the sender's next message
		}
	}

	// Busy: the role is held by a turn waiting to be released.
	inside, release := make(chan struct{}), make(chan struct{})
	go nd.post(func() { close(inside); <-release })
	<-inside
	const queued = 5
	for id := uint64(1); id <= queued; id++ {
		send(req(id))
	}
	nd.in.mu.Lock()
	if len(nd.in.q) != queued {
		t.Errorf("%d datagrams queued behind the held role, want %d", len(nd.in.q), queued)
	}
	for j, e := range nd.in.q {
		if !bytes.Equal(e.pkt, sent[j]) {
			t.Errorf("queued datagram %d is % x, want the % x its sender lent", j, e.pkt, sent[j])
		}
	}
	nd.in.mu.Unlock()
	close(release)
	for id := uint64(1); id <= queued; id++ {
		answered(id)
	}

	// Idle: the sender runs the receiver's turn inside Send.
	for idle := false; !idle; runtime.Gosched() {
		nd.in.mu.Lock()
		idle = !nd.in.running
		nd.in.mu.Unlock()
	}
	send(req(queued + 1))
	if len(box) != 2 {
		t.Fatalf("%d answers queued when Send to an idle node returned, want its ack and response", len(box))
	}
	answered(queued + 1)
}

// TestInboxClaimedEntryNotQueued: a put that claims the role queues
// nothing — its entry is the claimer's first turn — so the queue stays
// empty and no datagram is counted or copied. A datagram put while the
// role is held waits as a copy and counts against inboxPacketCap; a post
// waits uncounted. Once the holder has taken those and released the
// role, the next put claims it again.
func TestInboxClaimedEntryNotQueued(t *testing.T) {
	in := newInbox()
	if claimed, open := in.start(); claimed || !open {
		t.Fatalf("start of an empty inbox: claimed %v, open %v; want open and unclaimed", claimed, open)
	}
	pkt := []byte{1, 2, 3}
	if ok, claimed := in.put(inboxEntry{pkt: pkt}, true); !ok || !claimed {
		t.Fatalf("datagram put into an idle inbox: accepted %v, claimed %v; want the role", ok, claimed)
	}
	if len(in.q) != 0 || in.packets != 0 {
		t.Errorf("after a claiming put: %d queued, %d datagrams counted; want none", len(in.q), in.packets)
	}
	if ok, claimed := in.put(inboxEntry{pkt: pkt}, true); !ok || claimed {
		t.Fatalf("datagram put into a held inbox: accepted %v, claimed %v; want queued", ok, claimed)
	}
	if ok, claimed := in.put(inboxEntry{fn: func() {}}, false); !ok || claimed {
		t.Fatalf("post into a held inbox: accepted %v, claimed %v; want queued", ok, claimed)
	}
	pkt[0] = 9 // the sender's next message
	if len(in.q) != 2 || in.packets != 1 {
		t.Fatalf("held inbox: %d queued, %d datagrams counted; want 2 and 1", len(in.q), in.packets)
	}
	if !bytes.Equal(in.q[0].pkt, []byte{1, 2, 3}) {
		t.Errorf("queued datagram is % x, want the 01 02 03 its sender lent", in.q[0].pkt)
	}
	if e, _ := in.take(); e == nil || e.fn != nil {
		t.Fatalf("first queued entry: %+v, want the datagram", e)
	}
	if e, _ := in.take(); e == nil || e.fn == nil {
		t.Fatalf("second queued entry: %+v, want the post", e)
	}
	if e, open := in.take(); e != nil || !open {
		t.Fatalf("drained inbox: %+v (open %v), want nothing and the role released", e, open)
	}
	if ok, claimed := in.put(inboxEntry{fn: func() {}}, false); !ok || !claimed || len(in.q) != 0 {
		t.Errorf("post into the released inbox: accepted %v, claimed %v, %d queued; want the role and nothing queued", ok, claimed, len(in.q))
	}
}

// TestInboxVerdictElsewhere: a lookup whose relay is busy is finished on
// the goroutine that holds the relay's role, not on its caller's, so the
// caller's verdict is sent from another goroutine. Released at once, the
// relay answers while the caller still yields; held for 20 ms, the wait
// outlasts awaitYields and the caller blocks on its channel. Either way
// the caller gets the route's own verdict, and Close leaves no goroutine
// behind.
func TestInboxVerdictElsewhere(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n, origin, dst = 16, 0, 15
	base := settledGoroutines()
	mem := NewMemNetwork()
	addrs := make([]string, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		tr := mem.Endpoint()
		addrs[i] = tr.Addr()
		// An RTO past the hold: the origin never retransmits to the relay.
		nodes[i], err = New(Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: tr,
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
			RTO:       time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
	}
	hop := proto.(rcm.Forwarder).AppendCandidateHops(nil, origin, dst)[0]
	relay := nodes[hop]
	want := nodes[origin].Lookup(dst)
	if !want.OK() || want.Hops < 2 || hop == dst {
		t.Fatalf("idle route %d → %d via %d: %+v; want a relay between origin and owner", origin, dst, hop, want)
	}
	for _, hold := range []time.Duration{0, 20 * time.Millisecond} {
		inside, release := make(chan struct{}), make(chan struct{})
		go relay.post(func() { close(inside); <-release })
		<-inside
		res := make(chan Result, 1)
		go func() { res <- nodes[origin].Lookup(dst) }()
		for queued := false; !queued; runtime.Gosched() {
			relay.in.mu.Lock()
			queued = len(relay.in.q) > 0
			relay.in.mu.Unlock()
		}
		if hold > 0 {
			time.Sleep(hold)
			for deadline := time.Now().Add(5 * time.Second); !blockedInAwait(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("held %v and 5 s more: no caller blocked in await, want the wait to outlast %d yields", hold, awaitYields)
					break
				}
			}
		}
		close(release)
		var got Result
		within(t, 5*time.Second, "the verdict of a lookup through a held relay", func() { got = <-res })
		if got.Err != nil || got.Status != want.Status || got.Hops != want.Hops {
			t.Errorf("held %v: %+v, want %+v", hold, got, want)
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	waitGoroutines(t, base, "a mem cluster after Close")
}

// blockedInAwait reports whether some goroutine is blocked on a channel
// receive inside await.
func blockedInAwait() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "rcm/node.await[") {
			return true
		}
	}
	return false
}

// TestCloseUnstartedAnswersCallers: a request posted to a node that was
// never started waits in its inbox; Close runs it and fails it, rather
// than leaving its caller blocked.
func TestCloseUnstartedAnswersCallers(t *testing.T) {
	nd := unstartedSolo(t)
	res := make(chan Result, 1)
	go func() { res <- nd.Lookup(5) }()
	for queued := false; !queued; time.Sleep(time.Millisecond) {
		nd.in.mu.Lock()
		queued = len(nd.in.q) > 0
		nd.in.mu.Unlock()
	}
	within(t, 2*time.Second, "Close of an unstarted node", nd.Close)
	select {
	case r := <-res:
		if r.Err == nil || !strings.Contains(r.Err.Error(), "closed") {
			t.Errorf("lookup posted before Start, then Close: %+v, want a closed error", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lookup posted before Start still blocked 2 s after Close")
	}
}

// TestSeenWindow: the dedupe window holds exactly the last seenCap
// request ids, evicting in arrival order.
func TestSeenWindow(t *testing.T) {
	w := seenWindow{limit: seenCap}
	indexed := func() int {
		n := 0
		for _, s := range w.index {
			if s != 0 {
				n++
			}
		}
		return n
	}
	const total = 2*seenCap + 37
	for id := uint64(1); id <= total; id++ {
		w.add(id)
		if n := indexed(); n > seenCap || len(w.ring) > seenCap {
			t.Fatalf("after %d ids the window holds %d (ring %d), cap %d", id, n, len(w.ring), seenCap)
		}
		if oldest := id - seenCap; id > seenCap {
			if w.has(oldest) {
				t.Fatalf("id %d still held after %d newer ones", oldest, seenCap)
			}
			if !w.has(oldest + 1) {
				t.Fatalf("id %d evicted with only %d newer ones", oldest+1, seenCap-1)
			}
		}
	}
	if n := indexed(); n != seenCap {
		t.Errorf("window holds %d ids, want %d", n, seenCap)
	}
}

// settledGoroutines is the goroutine count once earlier tests' stragglers
// have exited: the first value that holds over five reads 10 ms apart.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 5 {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// waitGoroutines polls until the process runs want goroutines.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	var got int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if got = runtime.NumGoroutine(); got == want {
			return
		}
	}
	t.Errorf("%s: %d goroutines, want %d", what, got, want)
}

// TestMemClusterGoroutines: a node on an in-memory endpoint has no
// goroutine — senders push into its inbox and run its turns, so there is
// neither a loop nor a receive pump — and Close leaves none behind, not
// even for the requests a fault plan still holds back. A node on a
// virtual network has none either: the callers step it. A UDP node is
// its pump alone, fault plan and all: a socket cannot push.
func TestMemClusterGoroutines(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	// reorder:1 holds back every request its node sends.
	held, planClock := mustPlan(t, "reorder:1").Bind(1, 100), func() float64 { return 0 }
	base := settledGoroutines()
	for _, net := range []struct {
		name  string
		mem   *MemNetwork
		perNd int
	}{{"mem", NewMemNetwork(), 0}, {"sim", NewSimNetwork(), 0}} {
		addrs := make([]string, n)
		nodes := make([]*Node, n)
		for i := range nodes {
			tr := net.mem.Endpoint()
			addrs[i] = tr.Addr()
			cfg := Config{
				Protocol:  proto,
				ID:        overlay.ID(i),
				Transport: tr,
				AddrOf:    func(id overlay.ID) string { return addrs[id] },
			}
			if i%2 == 1 {
				cfg.Fault, cfg.FaultClock = held, planClock
			}
			nodes[i], err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i].Start()
		}
		waitGoroutines(t, base+n*net.perNd, "128 started "+net.name+" nodes")
		for i := 0; i < n; i++ {
			if res := nodes[i].Lookup(overlay.ID((i + 77) % n)); !res.OK() {
				t.Fatalf("%s lookup from %d: %+v", net.name, i, res)
			}
		}
		waitGoroutines(t, base+n*net.perNd, net.name+" after traffic")
		// Leave a request held back at every planned node as Close runs.
		for i := 1; i < n; i += 2 {
			if !nodes[i].originate(make(chan Result, 1), OpLookup, overlay.ID((i+77)%n), 0, nil) {
				t.Fatalf("%s node %d refused a lookup", net.name, i)
			}
		}
		for _, nd := range nodes {
			nd.Close()
		}
		waitGoroutines(t, base, net.name+" after Close")
	}

	udp, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Protocol: proto, ID: 1, Transport: udp, AddrOf: func(overlay.ID) string { return udp.Addr() },
		Fault: held, FaultClock: planClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	waitGoroutines(t, base+1, "one started UDP node")
	if res := nd.Lookup(1); !res.OK() {
		t.Errorf("self-lookup on UDP: %+v", res)
	}
	nd.Close()
	waitGoroutines(t, base, "after UDP Close")
}
