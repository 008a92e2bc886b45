package node

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// soloNode builds and starts a single in-memory node — lifecycle tests
// need no peers.
func soloNode(t *testing.T) *Node {
	t.Helper()
	nd := unstartedSolo(t)
	nd.Start()
	return nd
}

// unstartedSolo is soloNode before Start: its inbox queues what is put
// and nobody runs it yet. The test closes it on cleanup.
func unstartedSolo(t *testing.T) *Node {
	t.Helper()
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemNetwork().Endpoint()
	nd, err := New(Config{
		Protocol:  proto,
		ID:        3,
		Transport: tr,
		AddrOf:    func(overlay.ID) string { return tr.Addr() },
		RTO:       10 * time.Millisecond,
		Deadline:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Close)
	return nd
}

// within fails the test if fn does not return inside d — the regression
// shape for the control-after-Close hang, where a posted closure accepted
// after the loop's last drain would never run and never close the ack.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestRestartAfterCloseRejected: Restart on a closed node must return
// promptly, must not re-arm the drained loop, and the node must keep
// rejecting requests: the closed inbox refuses the post, so the call can
// neither hang nor flip downNow on a dead loop.
func TestRestartAfterCloseRejected(t *testing.T) {
	nd := soloNode(t)
	nd.Kill()
	if !nd.Down() {
		t.Fatal("Kill did not mark the node down")
	}
	nd.Close()
	for i := 0; i < 50; i++ {
		within(t, 5*time.Second, "Restart after Close", nd.Restart)
		if !nd.Down() {
			t.Fatalf("iteration %d: Restart after Close re-armed the node", i)
		}
	}
	// The node was down when it closed and Restart must not have revived
	// it, so requests keep failing fast on the down check.
	res := nd.Lookup(5)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "down") {
		t.Fatalf("lookup on killed+closed node: %+v, want down error", res)
	}
}

// TestKillAfterCloseRejected: the mirror ordering — Kill on a closed (and
// never-killed) node must be a prompt no-op that leaves Down() false
// rather than posting crash cleanup at a drained loop.
func TestKillAfterCloseRejected(t *testing.T) {
	nd := soloNode(t)
	nd.Close()
	for i := 0; i < 50; i++ {
		within(t, 5*time.Second, "Kill after Close", nd.Kill)
		if nd.Down() {
			t.Fatalf("iteration %d: Kill after Close mutated a closed node", i)
		}
	}
	res := nd.Lookup(5)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "closed") {
		t.Fatalf("lookup on closed node: %+v, want closed error", res)
	}
}

// TestKillRestartCycleThenClose: the healthy ordering still works — kill,
// restart, serve, close — and a second Close is idempotent.
func TestKillRestartCycleThenClose(t *testing.T) {
	nd := soloNode(t)
	for i := 0; i < 10; i++ {
		nd.Kill()
		if !nd.Down() {
			t.Fatalf("cycle %d: not down after Kill", i)
		}
		if res := nd.Lookup(3); res.Err == nil {
			t.Fatalf("cycle %d: lookup on killed node succeeded: %+v", i, res)
		}
		nd.Restart()
		if nd.Down() {
			t.Fatalf("cycle %d: still down after Restart", i)
		}
		if res := nd.Lookup(3); !res.OK() {
			t.Fatalf("cycle %d: self-lookup after Restart: %+v", i, res)
		}
	}
	within(t, 5*time.Second, "Close", nd.Close)
	within(t, 5*time.Second, "second Close", nd.Close)
}

// TestControlConcurrentWithClose hammers Kill/Restart, lookups and
// metrics snapshots from many goroutines racing one Close: whatever
// interleaving wins, every call must return — a post the inbox accepted
// runs, one it refused fails its caller at once. (Run with -race this
// also checks these paths touch no loop state off-loop.)
func TestControlConcurrentWithClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		nd := soloNode(t)
		start := make(chan struct{})
		done := make(chan struct{})
		calls := []func(g, i int){
			func(g, i int) {
				if (g+i)%2 == 0 {
					nd.Kill()
				} else {
					nd.Restart()
				}
			},
			func(g, i int) { nd.Lookup(overlay.ID(3 + i%2)) }, // self, and a peer that never acks
			func(g, i int) { nd.Metrics() },
		}
		const callers = 6
		for g := 0; g < callers; g++ {
			go func(g int) {
				<-start
				for i := 0; i < 10; i++ {
					calls[g%len(calls)](g, i)
				}
				done <- struct{}{}
			}(g)
		}
		go func() {
			<-start
			nd.Close()
			done <- struct{}{}
		}()
		close(start)
		for i := 0; i < callers+1; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: call hung racing Close", round)
			}
		}
	}
}

// TestSimConcurrentCallers: on a virtual network whichever caller is
// blocked steps the network, so callers on many goroutines — lookups,
// Metrics, and Kill/Restart of one node — take turns stepping and each
// returns with its own reply; afterwards every pair routes and a
// concurrent Close of every node returns. Under -race this also checks
// that node state passes between the stepping goroutines only through the
// network's step lock.
func TestSimConcurrentCallers(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n, toggled = 16, 5
	sim := NewSimNetwork()
	addrs := make([]string, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		tr := sim.Endpoint()
		addrs[i] = tr.Addr()
		if nodes[i], err = New(Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: tr,
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
			RTO:       10 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
	}
	within(t, 30*time.Second, "concurrent callers", func() {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					switch src := (g + i) % n; {
					case g == 0 && i%2 == 0:
						nodes[toggled].Kill()
					case g == 0:
						nodes[toggled].Restart()
					case i%5 == 0:
						nodes[src].Metrics()
					default:
						nodes[src].Lookup(overlay.ID((src + 3*g + i) % n))
					}
				}
			}(g)
		}
		wg.Wait()
	})
	for src := range nodes {
		for dst := range nodes {
			if r := nodes[src].Lookup(overlay.ID(dst)); !r.OK() {
				t.Fatalf("lookup %d->%d after the concurrent phase: %+v", src, dst, r)
			}
		}
	}
	within(t, 10*time.Second, "concurrent Close", func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func() { defer wg.Done(); nd.Close() }()
		}
		wg.Wait()
	})
}

// timersOnLoop reads the length of nd's timer queue on its loop.
func timersOnLoop(t *testing.T, nd *Node) int {
	t.Helper()
	ch := make(chan int, 1)
	if !nd.post(func() { ch <- nd.timers.Len() }) {
		t.Fatal("post on a live node failed")
	}
	return <-ch
}

// TestResponseGuardStopped: the per-request response guard and the
// per-hop RTO must leave the node's timer queue with the request. Before
// the timer queue, every concluded request left a runtime timer armed,
// which Deadline + 2·RTO later posted a dead closure into the event loop
// and held the request's state until then. The queue must be empty after
// requests concluded by a response, by Kill, and by Close.
func TestResponseGuardStopped(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	tr, silent := mem.Endpoint(), mem.Endpoint() // silent never answers
	nd, err := New(Config{
		Protocol:  proto,
		ID:        3,
		Transport: tr,
		AddrOf: func(id overlay.ID) string {
			if id == 3 {
				return tr.Addr()
			}
			return silent.Addr()
		},
		RTO:      time.Second, // the silent peer's failovers outlast the checks below
		Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	defer nd.Close()

	for i := 0; i < 20; i++ {
		if res := nd.Lookup(3); !res.OK() {
			t.Fatalf("self-lookup %d: %+v", i, res)
		}
	}
	if n := timersOnLoop(t, nd); n != 0 {
		t.Errorf("after 20 completed lookups: %d timers queued, want 0", n)
	}

	// A lookup toward the silent peer stays in flight (retransmitting)
	// until Kill or Close concludes it; its guard and RTO leave with it.
	for _, end := range []string{"killed", "closed"} {
		sent := nd.Metrics().ReqsOut
		inflight := make(chan Result, 1)
		go func() { inflight <- nd.Lookup(9) }()
		for nd.Metrics().ReqsOut == sent {
			time.Sleep(time.Millisecond)
		}
		if n := timersOnLoop(t, nd); n != 2 {
			t.Fatalf("in flight: %d timers queued, want the guard and the RTO", n)
		}
		if end == "killed" {
			nd.Kill()
		} else {
			nd.Close()
		}
		if res := <-inflight; res.Err == nil || !strings.Contains(res.Err.Error(), end) {
			t.Fatalf("in-flight lookup across %s = %+v, want %s error", end, res, end)
		}
		if end == "killed" {
			if n := timersOnLoop(t, nd); n != 0 {
				t.Errorf("after Kill: %d timers queued, want 0", n)
			}
			if m := nd.Metrics(); m.Expired != 0 {
				t.Errorf("Expired = %d, want 0: no request here outlived its deadline", m.Expired)
			}
			nd.Restart()
		} else if n := nd.timers.Len(); n != 0 { // the loop has exited: Close waited for it
			t.Errorf("after Close: %d timers queued, want 0", n)
		}
	}
}
