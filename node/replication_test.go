package node

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
	"rcm/replica"
)

// bootReplicated is bootCluster with a replication factor: one node per
// identifier of a bits-wide overlay on in-memory datagrams, every node
// operating with the same Replicas.
func bootReplicated(t *testing.T, protocol string, bits, replicas int) []*Node {
	t.Helper()
	proto, err := rcm.NewProtocol(protocol, rcm.Config{Bits: bits, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := int(proto.Space().Size())
	addrs := make([]string, n)
	transports := make([]Transport, n)
	mem := NewMemNetwork()
	for i := range transports {
		transports[i] = mem.Endpoint()
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
			Deadline:  2 * time.Second,
			Replicas:  replicas,
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

// TestReplicatedPutStoresAllOwners: a replicated Put lands the value in
// the store of every owner in the key's replica set, and a Get through a
// different node reads it back.
func TestReplicatedPutStoresAllOwners(t *testing.T) {
	const k = 3
	nodes := bootReplicated(t, "chord", 5, k)
	space := nodes[0].cfg.Protocol.Space()

	key, value := "alpha", []byte("v1")
	if r := nodes[3].Put(key, value); !r.OK() {
		t.Fatalf("replicated put: %+v", r)
	}
	owners, err := replica.For(nodes[0].cfg.Protocol, space, nil, KeyID(space, key), k)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != k {
		t.Fatalf("replica set has %d owners, want %d", len(owners), k)
	}
	for _, o := range owners {
		v, ok := nodes[o].Store().Get(KeyHash(key))
		if !ok || !bytes.Equal(v, value) {
			t.Errorf("owner %d: stored value %q present=%v, want %q", o, v, ok, value)
		}
	}
	if r := nodes[17].Get(key); !r.OK() || !bytes.Equal(r.Value, value) {
		t.Errorf("replicated get: %+v", r)
	}
}

// TestReplicatedGetFailsOver: with the key's root owner dead, a
// replicated Get still reads the value from a surviving owner; with the
// whole replica set dead, it fails like any unreachable key.
func TestReplicatedGetFailsOver(t *testing.T) {
	const k = 3
	nodes := bootReplicated(t, "chord", 5, k)
	space := nodes[0].cfg.Protocol.Space()

	key, value := "beta", []byte("v2")
	if r := nodes[9].Put(key, value); !r.OK() {
		t.Fatalf("replicated put: %+v", r)
	}
	owners, err := replica.For(nodes[0].cfg.Protocol, space, nil, KeyID(space, key), k)
	if err != nil {
		t.Fatal(err)
	}
	src := nodes[(int(owners[0])+7)%len(nodes)]

	nodes[owners[0]].Kill()
	if r := src.Get(key); !r.OK() || !bytes.Equal(r.Value, value) {
		t.Errorf("get with dead root owner: %+v", r)
	}
	nodes[owners[1]].Kill()
	if r := src.Get(key); !r.OK() || !bytes.Equal(r.Value, value) {
		t.Errorf("get with two dead owners: %+v", r)
	}
	nodes[owners[2]].Kill()
	if r := src.Get(key); r.OK() {
		t.Error("get succeeded with the whole replica set dead")
	}
}

// TestReplicatedGetTreatsNotFoundAsFailover: NotFound at an earlier owner
// does not end a replicated read — a value seeded only at a later owner
// (as churn-driven re-replication would leave it) is still found.
func TestReplicatedGetTreatsNotFoundAsFailover(t *testing.T) {
	const k = 3
	nodes := bootReplicated(t, "chord", 5, k)
	space := nodes[0].cfg.Protocol.Space()

	key, value := "gamma", []byte("v3")
	owners, err := replica.For(nodes[0].cfg.Protocol, space, nil, KeyID(space, key), k)
	if err != nil {
		t.Fatal(err)
	}
	nodes[owners[2]].Store().Put(KeyHash(key), value)
	if r := nodes[1].Get(key); !r.OK() || !bytes.Equal(r.Value, value) {
		t.Errorf("get of value held only by the last owner: %+v", r)
	}
}

// TestReplicasConfigValidation: a replication factor outside
// [0, replica.MaxReplicas] is rejected at construction.
func TestReplicasConfigValidation(t *testing.T) {
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	tr := mem.Endpoint()
	defer tr.Close()
	_, err = New(Config{
		Protocol:  proto,
		ID:        0,
		Transport: tr,
		AddrOf:    func(overlay.ID) string { return "" },
		Replicas:  replica.MaxReplicas + 1,
	})
	if err == nil {
		t.Error("Replicas above the cap accepted")
	}
}

// TestReplicatedPutWritesConcurrently: a k = 3 Put issues its three
// writes before it awaits any, so on virtual time it takes as long as its
// slowest owner's write alone — not the sum of the three — and its
// verdict and hop total are those of the writes made one at a time.
func TestReplicatedPutWritesConcurrently(t *testing.T) {
	const k = 3
	nodes := bootFaultNet(t, NewSimNetwork(), "chord", 5, "", func(cfg *Config) { cfg.Replicas = k })
	key, value := "beta", []byte("v2")
	hash := KeyHash(key)
	owners, err := nodes[0].owners(KeyID(nodes[0].space, key))
	if err != nil || len(owners) != k {
		t.Fatalf("replica set %v (err %v), want %d owners", owners, err, k)
	}
	var src *Node
	for _, nd := range nodes {
		if !slices.Contains(owners, nd.ID()) {
			src = nd
			break
		}
	}
	timed := func(f func() Result) (Result, time.Duration) {
		start := src.clk.Now()
		r := f()
		return r, src.clk.Now() - start
	}
	var slowest, sum time.Duration
	hops := 0
	for _, o := range owners {
		r, d := timed(func() Result { return src.issue(OpPut, o, hash, value) })
		if !r.OK() || d <= 0 {
			t.Fatalf("write to owner %d alone: %+v in %v", o, r, d)
		}
		slowest, sum, hops = max(slowest, d), sum+d, hops+r.Hops
	}
	r, d := timed(func() Result { return src.Put(key, value) })
	if !r.OK() || r.Hops != hops {
		t.Errorf("replicated put: %+v, want OK with the writes' %d hops", r, hops)
	}
	if d != slowest {
		t.Errorf("replicated put took %v of virtual time, want its slowest owner's %v (the three one at a time take %v)", d, slowest, sum)
	}
}
