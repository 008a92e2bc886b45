package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"rcm/internal/dht"
	"rcm/node"
	"rcm/node/cluster"
	"rcm/overlay"
	"rcm/replica"
)

// live is both live-cluster workloads: closed-loop clients, each
// waiting for a reply before it issues its next operation, as the
// cluster.Replay harness, rcmd clients and exp sweeps do. With kv the
// operations are puts and gets of preloaded keys, otherwise lookups.
type live struct {
	cfg  cluster.Config
	c    *cluster.Cluster
	kv   bool
	keys []string
	vals [][]byte // vals[i] is a pure function of keys[i]
	ops  int      // per repetition
	seed uint64
	sz   sizes

	// of the last traced repetition, for the probes that build on them
	latP50us, meanHops float64
}

// liveDeadline is the request deadline of the live clusters. Every
// request arms a guard timer that lives for the deadline plus two RTOs
// whether or not the request completes, so under the 5 s default the
// population of pending timers, and with it the cost of an operation,
// grows for the first five seconds of a window. One second, still a
// thousand times a loopback operation, lets the warm-up come close to
// the steady state.
const liveDeadline = time.Second

func setupLiveMem(seed uint64, sz sizes) (instance, error) {
	l := &live{
		cfg: cluster.Config{Protocol: "chord", Bits: sz.liveBits, Seed: seed, Transport: "mem", Deadline: liveDeadline},
		ops: sz.memOps, seed: seed, sz: sz,
	}
	return l.boot(sz.memWarm)
}

func setupLiveUDP(seed uint64, sz sizes) (instance, error) {
	l := &live{
		cfg: cluster.Config{Protocol: "kademlia", Bits: sz.liveBits, Seed: seed, Transport: "udp", Replicas: 3, Store: "mem", Deadline: liveDeadline},
		kv:  true, ops: sz.udpOps, seed: seed, sz: sz,
	}
	rng := overlay.NewRNG(mix(seed, 10))
	for i := 0; i < sz.udpKeys; i++ {
		key := fmt.Sprintf("key-%d-%x", i, rng.Uint64())
		l.keys = append(l.keys, key)
		l.vals = append(l.vals, valueOf(key))
	}
	return l.boot(sz.udpWarm)
}

// valueOf is the 256-byte value every put of key writes, so any get,
// whenever it runs, has exactly one right answer.
func valueOf(key string) []byte {
	rng := overlay.NewRNG(node.KeyHash(key))
	v := make([]byte, 256)
	for i := 0; i < len(v); i += 8 {
		x := rng.Uint64()
		for j := 0; j < 8; j++ {
			v[i+j] = byte(x >> (8 * j))
		}
	}
	return v
}

// boot starts the cluster, preloads the keys and runs warm discarded
// operations.
func (l *live) boot(warm int) (instance, error) {
	c, err := cluster.New(l.cfg)
	if err != nil {
		return nil, err
	}
	l.c = c
	if failed := l.preload(); failed > 0 {
		c.Close()
		return nil, fmt.Errorf("preload: %d of %d puts failed", failed, len(l.keys))
	}
	if d := l.drive(warm, false); d.failed > 0 {
		c.Close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed", d.failed, warm)
	}
	return l, nil
}

func (l *live) preload() (failed int) {
	nc := clients()
	fails := make([]int, nc)
	var wg sync.WaitGroup
	for w := 0; w < nc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(l.keys); i += nc {
				if !l.c.Node(i%l.c.Len()).Put(l.keys[i], l.vals[i]).OK() {
					fails[w]++
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return failed
}

// driven is what the clients of one drive saw.
type driven struct {
	ops, failed, hops int
	// per operation, only when timed: issue and verdict at the caller,
	// and whether it was a put.
	starts, ends []time.Time
	puts         []bool
}

// drive issues ops operations from the closed-loop clients. The
// operation sequence is a function of the run seed alone, so every
// repetition issues the same one.
func (l *live) drive(ops int, timing bool) driven {
	nc := clients()
	per := make([]driven, nc)
	n := l.c.Len()
	var wg sync.WaitGroup
	for w := 0; w < nc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &per[w]
			d.ops = ops / nc
			if timing {
				d.starts = make([]time.Time, 0, d.ops)
				d.ends = make([]time.Time, 0, d.ops)
				d.puts = make([]bool, 0, d.ops)
			}
			rng := overlay.NewRNG(mix(l.seed, 100+uint64(w)))
			for i := 0; i < d.ops; i++ {
				src := l.c.Node(rng.Intn(n))
				var start time.Time
				var r node.Result
				ok, put := false, false
				if l.kv {
					k := rng.Intn(len(l.keys))
					put = rng.Uint64()&1 == 0
					if timing {
						start = time.Now()
					}
					if put {
						r = src.Put(l.keys[k], l.vals[k])
						ok = r.OK()
					} else {
						r = src.Get(l.keys[k])
						ok = r.OK() && bytes.Equal(r.Value, l.vals[k])
					}
				} else {
					dst := overlay.ID(rng.Intn(n))
					if timing {
						start = time.Now()
					}
					r = src.Lookup(dst)
					ok = r.OK()
				}
				if timing {
					d.ends = append(d.ends, time.Now())
					d.starts = append(d.starts, start)
					d.puts = append(d.puts, put)
				}
				if !ok {
					d.failed++
				}
				d.hops += r.Hops
			}
		}()
	}
	wg.Wait()
	var all driven
	for _, d := range per {
		all.ops += d.ops
		all.failed += d.failed
		all.hops += d.hops
		all.starts = append(all.starts, d.starts...)
		all.ends = append(all.ends, d.ends...)
		all.puts = append(all.puts, d.puts...)
	}
	return all
}

func (l *live) rep(tr *tracer, parent int32, i int) (repStats, error) {
	m0 := l.c.Metrics()
	obj0, bytes0 := mallocs()
	var d driven
	var repSpan int32
	wall, cpu := timed(tr, parent, "repetition", i, func(span int32) {
		repSpan = span
		d = l.drive(l.ops, tr != nil)
	})
	obj1, bytes1 := mallocs()
	m1 := l.c.Metrics()
	ops := float64(d.ops)
	rs := repStats{wall: wall, cpu: cpu, work: ops, attempted: d.ops, failed: d.failed}
	if tr == nil {
		return rs, nil
	}
	tr.addOps(repSpan, "op", i, d.starts, d.ends)

	kop := ops / 1000
	layer := map[string]float64{
		"node.msgs_per_op":      float64(m1.ReqsOut+m1.AcksOut+m1.RespsOut-m0.ReqsOut-m0.AcksOut-m0.RespsOut) / ops,
		"node.mean_hops":        float64(d.hops) / ops,
		"node.allocs_per_op":    (obj1 - obj0) / ops,
		"node.bytes_per_op":     (bytes1 - bytes0) / ops,
		"node.timeouts_per_kop": float64(m1.Timeouts-m0.Timeouts) / kop,
		"node.retries_per_kop":  float64(m1.Retransmits+m1.Failovers+m1.DupReqs-m0.Retransmits-m0.Failovers-m0.DupReqs) / kop,
		"node.shed_expired":     float64(m1.Shed + m1.Expired - m0.Shed - m0.Expired),
	}
	var all, puts, gets []int64
	for k := range d.starts {
		ns := int64(d.ends[k].Sub(d.starts[k]))
		all = append(all, ns)
		if d.puts[k] {
			puts = append(puts, ns)
		} else if l.kv {
			gets = append(gets, ns)
		}
	}
	us := func(ns []int64, p float64) float64 {
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		v, _ := percentile(ns, p) // 0 when too few samples lie beyond it
		return float64(v) / 1e3
	}
	layer["node.lat_p50_us"] = us(all, 0.50)
	layer["node.lat_p90_us"] = us(all, 0.90)
	layer["cluster.lat_p99_us"] = us(all, 0.99)
	layer["cluster.lat_p999_us"] = us(all, 0.999)
	// The nodes' own issue-to-verdict histograms, cumulative since boot.
	inner := m1.LookupLatency
	if l.kv {
		inner = m1.GetLatency
		inner.Merge(&m1.PutLatency)
		layer["node.put_lat_p50_us"] = us(puts, 0.50)
		layer["node.get_lat_p50_us"] = us(gets, 0.50)
		if g := m1.StoreGets - m0.StoreGets; g > 0 {
			layer["node.store_hit_ratio"] = float64(m1.StoreHits-m0.StoreHits) / float64(g)
		}
	}
	layer["node.inner_lat_p50_us"] = float64(inner.P50())
	layer["node.caller_overhead_us"] = layer["node.lat_p50_us"] - layer["node.inner_lat_p50_us"]
	l.latP50us, l.meanHops = layer["node.lat_p50_us"], layer["node.mean_hops"]
	rs.layer = layer
	return rs, nil
}

// verify has nothing to compare across repetitions: each operation was
// checked when it completed.
func (l *live) verify([]repStats) (int, []string) { return 0, nil }

func (l *live) close() { l.c.Close() }

func (l *live) probes(tr *tracer, parent int32) (map[string]float64, error) {
	out := make(map[string]float64)
	sz := l.sz

	// Boot and close of a second cluster of the same configuration.
	var c2 *cluster.Cluster
	var err error
	out["cluster.boot_ms"] = tr.measure(parent, "cluster.New", -1, func() { c2, err = cluster.New(l.cfg) }) * 1e3
	if err != nil {
		return nil, err
	}
	out["cluster.close_ms"] = tr.measure(parent, "Cluster.Close", -1, c2.Close) * 1e3

	// One datagram there and back on the workload's transport.
	for _, rt := range []struct {
		name string
		size int
	}{{"node.rtt_us", 64}, {"node.rtt_1k_us", 1024}} {
		if out[rt.name], err = rttProbe(tr, parent, l.cfg.Transport, rt.size, sz.probeOps); err != nil {
			return nil, err
		}
	}

	// A lookup of the node's own identifier: one trip through the
	// event loop, no hop.
	n := l.c.Len()
	k := 0
	out["node.local_op_us"] = probe(tr, parent, "Node.Lookup self", sz.probeFor, func() {
		l.c.Node(k % n).Lookup(overlay.ID(k % n))
		k++
	}) / 1e3
	if l.meanHops > 0 {
		out["node.per_hop_us"] = (l.latP50us - out["node.local_op_us"]) / l.meanHops
	}

	// The same transport under the one-hop protocol.
	one := l.cfg
	one.Protocol, one.Replicas, one.Store = "singlehop", 0, ""
	c1, err := cluster.New(one)
	if err != nil {
		return nil, err
	}
	rng := overlay.NewRNG(mix(l.seed, 20))
	failed := 0
	out["node.onehop_op_us"] = tr.measure(parent, "singlehop Node.Lookup", -1, func() {
		for i := 0; i < sz.probeOps; i++ {
			if !c1.Node(rng.Intn(n)).Lookup(overlay.ID(rng.Intn(n))).OK() {
				failed++
			}
		}
	}) * 1e6 / float64(sz.probeOps)
	c1.Close()
	if failed > 0 {
		return nil, fmt.Errorf("singlehop probe: %d of %d lookups failed", failed, sz.probeOps)
	}

	proto := l.c.Protocol()
	out["dht.build_ms."+l.cfg.Protocol] = probe(tr, parent, "dht.New "+l.cfg.Protocol, sz.probeFor, func() {
		_, err = dht.New(l.cfg.Protocol, dht.Config{Bits: l.cfg.Bits, Seed: l.cfg.Seed})
	}) / 1e6
	if err != nil {
		return nil, err
	}
	out["dht.candidate_hops_ns."+l.cfg.Protocol] = candidateHopsProbe(tr, parent, proto, l.seed, sz)
	obsProbes(tr, parent, out, sz)
	if !l.kv {
		return out, nil
	}

	var set []overlay.ID
	root := 0
	out["replica.for_k3_ns"] = probe(tr, parent, "replica.For k=3", sz.probeFor, func() {
		set, err = replica.For(proto, proto.Space(), set[:0], overlay.ID(root%n), 3)
		root++
	})
	if err != nil {
		return nil, err
	}
	store := node.NewMemStore()
	hashes := make([]uint64, len(l.keys))
	for i, key := range l.keys {
		hashes[i] = node.KeyHash(key)
	}
	i := 0
	out["node.store_put_ns"] = probe(tr, parent, "MemStore.Put", sz.probeFor, func() {
		store.Put(hashes[i%len(hashes)], l.vals[i%len(hashes)])
		i++
	})
	out["node.store_get_ns"] = probe(tr, parent, "MemStore.Get", sz.probeFor, func() {
		store.Get(hashes[i%len(hashes)])
		i++
	})
	return out, nil
}

// rttProbe bounces a datagram of size bytes between two endpoints of
// the named transport and returns the mean round trip in microseconds.
func rttProbe(tr *tracer, parent int32, transport string, size, trips int) (float64, error) {
	var a, b node.Transport
	if transport == "udp" {
		var err error
		if a, err = node.ListenUDP("127.0.0.1:0"); err != nil {
			return 0, err
		}
		if b, err = node.ListenUDP("127.0.0.1:0"); err != nil {
			a.Close()
			return 0, err
		}
	} else {
		mem := node.NewMemNetwork()
		a, b = mem.Endpoint(), mem.Endpoint()
	}
	echoed := make(chan struct{})
	go func() { // echo until b is closed
		defer close(echoed)
		for {
			pkt, from, err := b.Recv()
			if err != nil {
				return
			}
			b.Send(from, pkt)
		}
	}()
	pkt := make([]byte, size)
	var err error
	sec := tr.measure(parent, fmt.Sprintf("Transport ping-pong %s %dB", transport, size), -1, func() {
		for i := 0; i < trips && err == nil; i++ {
			if err = a.Send(b.Addr(), pkt); err == nil {
				_, _, err = a.Recv()
			}
		}
	})
	b.Close()
	<-echoed
	a.Close()
	if err != nil {
		return 0, err
	}
	return sec * 1e6 / float64(trips), nil
}
