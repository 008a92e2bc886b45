package node

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// TestInboxPerSenderFIFO: entries of one producer reach the loop in the
// order it put them, whatever the interleaving with other producers and
// however the consumer's batches fall.
func TestInboxPerSenderFIFO(t *testing.T) {
	const producers, each = 8, 500 // 4000 packets: under the bound, so none may drop
	in := newInbox()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pkt := binary.BigEndian.AppendUint32([]byte{byte(p)}, uint32(i))
				if !in.put(inboxEntry{pkt: pkt}) {
					t.Errorf("producer %d: put %d refused by an open inbox", p, i)
					return
				}
			}
		}(p)
	}
	go func() { wg.Wait(); in.close() }()

	next := make([]uint32, producers)
	var batch []inboxEntry
	for open := true; open; {
		batch, open = in.take(batch)
		for _, e := range batch {
			p, i := e.pkt[0], binary.BigEndian.Uint32(e.pkt[1:])
			if i != next[p] {
				t.Fatalf("producer %d: entry %d arrived where %d was due", p, i, next[p])
			}
			next[p]++
		}
	}
	for p, n := range next {
		if n != each {
			t.Errorf("producer %d: %d of %d entries arrived", p, n, each)
		}
	}
}

// TestInboxPacketBound: the inbox drops datagrams exactly at
// inboxPacketCap, keeps accepting posts past it, and has room again once
// the loop has taken the queue.
func TestInboxPacketBound(t *testing.T) {
	in := newInbox()
	for i := 0; i < inboxPacketCap+10; i++ {
		if !in.put(inboxEntry{pkt: []byte{1}}) {
			t.Fatalf("put %d refused by an open inbox", i)
		}
	}
	ran := false
	if !in.put(inboxEntry{fn: func() { ran = true }}) {
		t.Fatal("post refused by an open inbox")
	}
	batch, open := in.take(nil)
	if !open {
		t.Fatal("take reports an open inbox closed")
	}
	if want := inboxPacketCap + 1; len(batch) != want {
		t.Fatalf("took %d entries, want %d packets and the post = %d", len(batch), inboxPacketCap, want)
	}
	for i, e := range batch[:inboxPacketCap] {
		if e.fn != nil {
			t.Fatalf("entry %d is a post, want a packet", i)
		}
	}
	batch[inboxPacketCap].fn()
	if !ran {
		t.Error("the post queued behind a full inbox is not the last entry")
	}
	in.put(inboxEntry{pkt: []byte{2}})
	in.close()
	if in.put(inboxEntry{fn: func() {}}) {
		t.Error("post accepted by a closed inbox")
	}
	if batch, open = in.take(batch[:0]); open || len(batch) != 1 {
		t.Errorf("after close: took %d entries, open=%v; want the 1 packet queued before it, closed", len(batch), open)
	}
}

// TestInboxNoLostWakeup: producers that each wait for their entry to run
// before putting the next, against a loop that dawdles between batches so
// it is forever falling asleep as entries arrive. A wake-up lost in that
// window leaves a queued entry with a sleeping loop, and the test hangs.
func TestInboxNoLostWakeup(t *testing.T) {
	const producers, each = 16, 400
	in := newInbox()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		var batch []inboxEntry
		for open, n := true, 0; open; n++ {
			batch, open = in.take(batch)
			for _, e := range batch {
				e.fn()
			}
			if n%3 == 0 {
				runtime.Gosched()
			} else if n%64 == 1 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	within(t, 30*time.Second, "closed-loop producers", func() {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran := make(chan struct{}, 1)
				for i := 0; i < each; i++ {
					if !in.put(inboxEntry{fn: func() { ran <- struct{}{} }}) {
						t.Error("post refused by an open inbox")
						return
					}
					<-ran
				}
			}()
		}
		wg.Wait()
	})
	in.close()
	within(t, 5*time.Second, "loop exit after close", func() { <-loopDone })
}

// TestSeenWindow: the dedupe window holds exactly the last seenCap
// request ids, evicting in arrival order.
func TestSeenWindow(t *testing.T) {
	tb := reqTable{window: seenCap}
	held := func(id uint64) bool {
		i := tb.lookup(id)
		return i >= 0 && tb.seen(i)
	}
	const total = 2*seenCap + 37
	for id := uint64(1); id <= total; id++ {
		if evicted, full := tb.see(tb.entry(id)); full {
			tb.unsee(evicted)
		}
		if tb.used > seenCap || len(tb.ring) > seenCap {
			t.Fatalf("after %d ids the window holds %d (ring %d), cap %d", id, tb.used, len(tb.ring), seenCap)
		}
		if oldest := id - seenCap; id > seenCap {
			if held(oldest) {
				t.Fatalf("id %d still held after %d newer ones", oldest, seenCap)
			}
			if !held(oldest + 1) {
				t.Fatalf("id %d evicted with only %d newer ones", oldest+1, seenCap-1)
			}
		}
	}
	if tb.used != seenCap {
		t.Errorf("window holds %d ids, want %d", tb.used, seenCap)
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

// TestMemClusterGoroutines: a node on an in-memory endpoint is one
// goroutine — senders push into its inbox, so there is no receive pump —
// and Close leaves none behind, not even for the requests a fault plan
// still holds back. A node on a virtual network is none: the callers
// step it. A UDP node keeps its pump, fault plan and all: a socket
// cannot push.
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
	}{{"mem", NewMemNetwork(), 1}, {"sim", NewSimNetwork(), 0}} {
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
	waitGoroutines(t, base+2, "one started UDP node")
	if res := nd.Lookup(1); !res.OK() {
		t.Errorf("self-lookup on UDP: %+v", res)
	}
	nd.Close()
	waitGoroutines(t, base, "after UDP Close")
}
