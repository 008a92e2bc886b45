package node

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// bootCluster starts one node per identifier of a bits-wide chord overlay
// on the given substrate ("mem" or "udp") and returns the nodes plus a
// cleanup function.
func bootCluster(t *testing.T, protocol string, bits int, substrate string) []*Node {
	t.Helper()
	proto, err := rcm.NewProtocol(protocol, rcm.Config{Bits: bits, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := int(proto.Space().Size())
	addrs := make([]string, n)
	transports := make([]Transport, n)
	var mem *MemNetwork
	if substrate == "mem" {
		mem = NewMemNetwork()
	}
	for i := range transports {
		if mem != nil {
			transports[i] = mem.Endpoint()
		} else {
			tr, err := ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			transports[i] = tr
		}
		addrs[i] = transports[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := New(Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: transports[i],
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
			RTO:       20 * time.Millisecond,
			Deadline:  3 * time.Second,
		})
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

// TestLiveLookupAllPairs: on a healthy in-memory cluster every (src, dst)
// pair routes, with the hop count Route (global knowledge, nobody failed)
// would take.
func TestLiveLookupAllPairs(t *testing.T) {
	nodes := bootCluster(t, "chord", 4, "mem")
	proto, _ := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 7})
	alive := overlay.NewBitset(len(nodes))
	for i := range nodes {
		alive.Set(i)
	}
	for src := range nodes {
		for dst := range nodes {
			if src == dst {
				continue
			}
			res := nodes[src].Lookup(overlay.ID(dst))
			if !res.OK() {
				t.Fatalf("lookup %d -> %d: %+v", src, dst, res)
			}
			wantHops, ok := proto.Route(overlay.ID(src), overlay.ID(dst), alive)
			if !ok {
				t.Fatalf("Route %d -> %d failed on healthy overlay", src, dst)
			}
			if res.Hops != wantHops {
				t.Errorf("lookup %d -> %d took %d hops, Route takes %d", src, dst, res.Hops, wantHops)
			}
		}
	}
}

// TestLivePutGetUDP exercises the full stack over real UDP loopback
// sockets: put a batch of keys from scattered nodes, get them back from
// other nodes, and verify owner placement.
func TestLivePutGetUDP(t *testing.T) {
	nodes := bootCluster(t, "chord", 4, "udp")
	space := overlay.MustSpace(4)
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := fmt.Sprintf("value-%d", i)
		if res := nodes[i%len(nodes)].Put(key, []byte(val)); !res.OK() {
			t.Fatalf("put %q: %+v", key, res)
		}
		got := nodes[(i+7)%len(nodes)].Get(key)
		if !got.OK() || string(got.Value) != val {
			t.Fatalf("get %q = %+v, want %q", key, got, val)
		}
		// The value lives at the key's owner, nowhere else we wrote from.
		owner := KeyID(space, key)
		if _, ok := nodes[owner].Store().Get(KeyHash(key)); !ok {
			t.Errorf("owner %d of %q does not hold the key", owner, key)
		}
	}
	// Missing keys report not-found, not an error.
	res := nodes[3].Get("never-written")
	if res.Err != nil || res.Status != StatusNotFound {
		t.Errorf("missing key = %+v, want StatusNotFound", res)
	}
	// Distinct keys folding to the same owner stay distinct: stores index
	// by the full hash, not the folded identifier. In a 16-id space a
	// handful of keys is enough to land two on one owner (birthday).
	byOwner := map[overlay.ID]string{}
	var a, b string
	for i := 0; b == ""; i++ {
		k := fmt.Sprintf("col-%d", i)
		id := KeyID(space, k)
		if prev, ok := byOwner[id]; ok && KeyHash(prev) != KeyHash(k) {
			a, b = prev, k
		}
		byOwner[id] = k
	}
	nodes[0].Put(a, []byte("A"))
	nodes[0].Put(b, []byte("B"))
	if got := nodes[5].Get(a); !got.OK() || string(got.Value) != "A" {
		t.Errorf("co-owned key %q = %+v, want A", a, got)
	}
	if got := nodes[5].Get(b); !got.OK() || string(got.Value) != "B" {
		t.Errorf("co-owned key %q = %+v, want B", b, got)
	}
}

// TestLiveFailover: kill a node on the best path; lookups still succeed
// through candidate failover (UDP substrate, real timeouts firing), and
// the killed node itself refuses work until restarted.
func TestLiveFailover(t *testing.T) {
	nodes := bootCluster(t, "chord", 4, "udp")
	// Find a (src, dst) whose first hop is some intermediate node k.
	fwd := nodes[0].fwd
	var src, dst, victim int = -1, -1, -1
	for s := 0; s < len(nodes) && victim < 0; s++ {
		for d := 0; d < len(nodes); d++ {
			if s == d {
				continue
			}
			cands := fwd.AppendCandidateHops(nil, overlay.ID(s), overlay.ID(d))
			if len(cands) >= 2 && int(cands[0]) != d {
				src, dst, victim = s, d, int(cands[0])
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no multi-candidate pair found")
	}
	nodes[victim].Kill()
	if !nodes[victim].Down() {
		t.Fatal("killed node reports up")
	}
	res := nodes[src].Lookup(overlay.ID(dst))
	if !res.OK() {
		t.Fatalf("lookup %d -> %d with %d killed: %+v", src, dst, victim, res)
	}
	// The killed node refuses local work…
	if r := nodes[victim].Lookup(overlay.ID(dst)); r.Err == nil || !strings.Contains(r.Err.Error(), "down") {
		t.Errorf("killed node accepted a lookup: %+v", r)
	}
	// …and serves again after restart.
	nodes[victim].Restart()
	if r := nodes[victim].Lookup(overlay.ID(dst)); !r.OK() {
		t.Errorf("restarted node lookup: %+v", r)
	}
}

// TestLiveConcurrentLookups drives many lookups through one node at once
// under -race: the event loop owns all state, so this must be clean.
func TestLiveConcurrentLookups(t *testing.T) {
	nodes := bootCluster(t, "kademlia", 4, "mem")
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				src := (w*3 + i) % len(nodes)
				dst := (src + 1 + i) % len(nodes)
				if src == dst {
					continue
				}
				if res := nodes[src].Lookup(overlay.ID(dst)); !res.OK() {
					errs <- fmt.Sprintf("lookup %d -> %d: %+v", src, dst, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestNodeConfigValidation: New rejects unusable configurations.
func TestNodeConfigValidation(t *testing.T) {
	proto, _ := rcm.NewProtocol("chord", rcm.Config{Bits: 3, Seed: 1})
	mem := NewMemNetwork()
	addrOf := func(overlay.ID) string { return "" }
	for name, cfg := range map[string]Config{
		"nil protocol":  {Transport: mem.Endpoint(), AddrOf: addrOf},
		"nil transport": {Protocol: proto, AddrOf: addrOf},
		"nil directory": {Protocol: proto, Transport: mem.Endpoint()},
		"id outside space": {
			Protocol: proto, Transport: mem.Endpoint(), AddrOf: addrOf, ID: 8,
		},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOutOfSpaceDstRefused: a destination outside the identifier space is
// malformed outside input that no node owns. Every distance is masked, so
// routing it would spend O(log N) forwards and forward-table slots walking
// toward Dst mod N before the last hop noticed; instead the first node to
// see it — on origination or on receipt of a hand-built datagram — answers
// NoRoute, and nobody forwards anything.
func TestOutOfSpaceDstRefused(t *testing.T) {
	nodes := bootCluster(t, "chord", 6, "mem")
	size := uint64(len(nodes))
	forwards := func() (total uint64) {
		for _, nd := range nodes {
			total += nd.Metrics().ReqsOut
		}
		return total
	}

	if res := nodes[3].Lookup(overlay.ID(size + 40)); res.Status != StatusNoRoute || res.Err == nil {
		t.Errorf("in-process lookup of an out-of-space destination: %+v, want a NoRoute refusal", res)
	}

	probe := nodes[0].tr.(*memEndpoint).net.Endpoint()
	giveUp := time.AfterFunc(5*time.Second, func() { probe.Close() })
	defer giveUp.Stop()
	pkt, err := appendWire(nil, &message{Kind: msgReq, Op: OpLookup, Budget: 64, ReqID: 0xbad, Dst: size + 40, Deadline: 3000, Origin: probe.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Send(nodes[0].tr.Addr(), pkt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint8{msgAck, msgResp} {
		reply, _, err := probe.Recv()
		if err != nil {
			t.Fatalf("waiting for the %v: %v", want, err)
		}
		m, err := decodeWire(reply)
		if err != nil || m.Kind != want || m.ReqID != 0xbad || (want == msgResp && m.Status != StatusNoRoute) {
			t.Fatalf("reply %+v (err %v), want kind %v for request 0xbad, a response carrying NoRoute", m, err, want)
		}
	}
	if n := forwards(); n != 0 {
		t.Errorf("%d request forwards spent on out-of-space destinations, want 0", n)
	}
}
