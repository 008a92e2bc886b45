package node

import (
	"strings"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// soloNode builds and starts a single in-memory node — lifecycle tests
// need no peers.
func soloNode(t *testing.T) *Node {
	t.Helper()
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	tr := mem.Endpoint()
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
	nd.Start()
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

// TestResponseGuardStopped: the per-request response guard must die with
// the request. Before the fix every concluded request left its
// time.AfterFunc armed, so Deadline + 2·RTO later each one posted a dead
// closure into the event loop (and held the request's state until then).
// The test parks the loop past the guard time and looks at what queued up
// behind it: nothing may, whether the requests concluded by a response or
// by Kill.
func TestResponseGuardStopped(t *testing.T) {
	const (
		rto      = 10 * time.Millisecond
		deadline = 100 * time.Millisecond
		guard    = deadline + 2*rto
	)
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
		RTO:      rto,
		Deadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	defer nd.Close()

	guardCallbacks := func(what string) {
		t.Helper()
		release := make(chan struct{})
		if !nd.post(func() { <-release }) {
			t.Fatal("post on a live node failed")
		}
		time.Sleep(guard + 50*time.Millisecond) // past every guard armed so far
		queued := queuedEntries(nd)
		close(release)
		if queued != 0 {
			t.Errorf("%s: %d guard callbacks reached the loop, want 0", what, queued)
		}
	}

	for i := 0; i < 20; i++ {
		if res := nd.Lookup(3); !res.OK() {
			t.Fatalf("self-lookup %d: %+v", i, res)
		}
	}
	guardCallbacks("after 20 completed lookups")

	// A lookup toward the silent peer stays in flight (retransmitting)
	// until Kill concludes it; its guard must be disarmed with it.
	inflight := make(chan Result, 1)
	go func() { inflight <- nd.Lookup(9) }()
	for nd.Metrics().ReqsOut == 0 {
		time.Sleep(time.Millisecond)
	}
	nd.Kill()
	if res := <-inflight; res.Err == nil || !strings.Contains(res.Err.Error(), "killed") {
		t.Fatalf("in-flight lookup across Kill = %+v, want killed error", res)
	}
	guardCallbacks("after Kill")

	if m := nd.Metrics(); m.Expired != 0 {
		t.Errorf("Expired = %d, want 0: no request here outlived its deadline", m.Expired)
	}
}

// queuedEntries is how many entries wait in nd's inbox behind whatever
// the loop is running.
func queuedEntries(nd *Node) int {
	nd.in.mu.Lock()
	defer nd.in.mu.Unlock()
	return len(nd.in.q)
}
