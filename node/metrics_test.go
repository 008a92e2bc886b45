package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcm"
	"rcm/fault"
	"rcm/obs"
	"rcm/overlay"
)

// TestMetricsCounters: a healthy cluster's aggregate metrics balance —
// every sent message of each kind is received somewhere, every
// locally-originated OK lookup lands in the hop histogram, and the
// per-op latency histograms partition the verdicts by operation.
func TestMetricsCounters(t *testing.T) {
	nodes := bootCluster(t, "chord", 4, "mem")
	const perNode = 8
	lookups, puts, gets := 0, 0, 0
	for i, nd := range nodes {
		for j := 0; j < perNode; j++ {
			dst := overlay.ID((i + 3*j + 1) % len(nodes))
			if !nd.Lookup(dst).OK() {
				t.Fatalf("lookup %d->%d failed", i, dst)
			}
			lookups++
		}
	}
	key := "metrics-key"
	if !nodes[0].Put(key, []byte("v")).OK() {
		t.Fatal("put failed")
	}
	puts++
	if r := nodes[1].Get(key); !r.OK() || string(r.Value) != "v" {
		t.Fatalf("get: %+v", r)
	}
	gets++
	if r := nodes[2].Get("metrics-missing"); r.Status != StatusNotFound {
		t.Fatalf("get missing: %+v", r)
	}
	gets++

	all := make([]Metrics, len(nodes))
	for i, nd := range nodes {
		all[i] = nd.Metrics()
	}
	agg := MergeMetrics(all...)

	// The in-memory transport is lossless and nobody is down, so
	// every sent message is received.
	if agg.ReqsIn != agg.ReqsOut || agg.AcksIn != agg.AcksOut || agg.RespsIn != agg.RespsOut {
		t.Errorf("lossless cluster should balance in/out: %+v", agg)
	}
	// Every request delivery is acknowledged, attempt for attempt.
	if agg.AcksOut != agg.ReqsIn {
		t.Errorf("acks out %d != reqs in %d", agg.AcksOut, agg.ReqsIn)
	}
	// The missing-key get is NotFound, so it has a latency but no hop
	// observation.
	okVerdicts := uint64(lookups+puts+gets) - 1
	if agg.Hops.Count() != okVerdicts {
		t.Errorf("hop histogram count %d, want %d OK verdicts", agg.Hops.Count(), okVerdicts)
	}
	// All verdicts (including NotFound) land in a latency histogram.
	if n := agg.LookupLatency.Count(); n != uint64(lookups) {
		t.Errorf("lookup latency count %d, want %d", n, lookups)
	}
	if n := agg.GetLatency.Count(); n != uint64(gets) {
		t.Errorf("get latency count %d, want %d", n, gets)
	}
	if n := agg.PutLatency.Count(); n != uint64(puts) {
		t.Errorf("put latency count %d, want %d", n, puts)
	}
	if agg.StorePuts != uint64(puts) || agg.StoreGets != uint64(gets) || agg.StoreHits != 1 {
		t.Errorf("store counters: gets=%d hits=%d puts=%d", agg.StoreGets, agg.StoreHits, agg.StorePuts)
	}
	if agg.StoreLen != 1 {
		t.Errorf("aggregate store len %d, want 1", agg.StoreLen)
	}
	if agg.InFlight != 0 || agg.Waiting != 0 {
		t.Errorf("idle cluster has in-flight state: %+v", agg)
	}
	if agg.Down {
		t.Error("nobody is down")
	}
	if agg.Timeouts != 0 || agg.Retransmits != 0 || agg.Failovers != 0 || agg.Expired != 0 {
		t.Errorf("lossless cluster recovered from nothing: %+v", agg)
	}
}

// TestMetricsHopsMatchResults: the origin's hop histogram records exactly
// the per-result hop counts the caller saw.
func TestMetricsHopsMatchResults(t *testing.T) {
	nodes := bootCluster(t, "kademlia", 4, "mem")
	var want Histogramlike
	for dst := range nodes {
		r := nodes[0].Lookup(overlay.ID(dst))
		if !r.OK() {
			t.Fatalf("lookup 0->%d failed", dst)
		}
		want.observe(int64(r.Hops))
	}
	m := nodes[0].Metrics()
	if m.Hops.Count() != want.n || m.Hops.Sum() != want.sum {
		t.Errorf("hop histogram (n=%d sum=%d) != results (n=%d sum=%d)",
			m.Hops.Count(), m.Hops.Sum(), want.n, want.sum)
	}
	if got := m.Hops.Max(); got != want.max {
		t.Errorf("hop histogram max %d, want %d", got, want.max)
	}
}

// Histogramlike is a scalar shadow of the histogram for cross-checks.
type Histogramlike struct {
	n   uint64
	sum int64
	max int64
}

func (h *Histogramlike) observe(v int64) {
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// TestMetricsDownAndClosed: killed nodes report Down and count expired
// guards; a closed node returns the zero snapshot instead of hanging.
func TestMetricsDownAndClosed(t *testing.T) {
	nodes := bootCluster(t, "chord", 3, "mem")
	victim := nodes[3]
	victim.Kill()
	m := victim.Metrics()
	if !m.Down {
		t.Error("killed node does not report Down")
	}
	victim.Restart()
	if m := victim.Metrics(); m.Down {
		t.Error("restarted node still reports Down")
	}
	victim.Close()
	if m := victim.Metrics(); m != (Metrics{}) {
		t.Errorf("closed node returned non-zero metrics: %+v", m)
	}
}

// TestMetricsEvictions: a node backed by an LRU store surfaces the
// backend's eviction count through its snapshot.
func TestMetricsEvictions(t *testing.T) {
	lru, err := NewLRUStore(2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	tr := mem.Endpoint()
	addr := tr.Addr()
	nd, err := New(Config{
		Protocol:  proto,
		ID:        0,
		Transport: tr,
		AddrOf:    func(overlay.ID) string { return addr },
		Store:     lru,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	t.Cleanup(nd.Close)
	// Only node 0 exists, so use keys it owns (no routing required).
	puts := 0
	for i := 0; puts < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if KeyID(proto.Space(), key) != 0 {
			continue
		}
		if !nd.Put(key, []byte("v")).OK() {
			t.Fatalf("put %q failed", key)
		}
		puts++
	}
	m := nd.Metrics()
	if m.StoreLen != 2 {
		t.Errorf("store len %d, want capacity 2", m.StoreLen)
	}
	if m.StoreEvictions != 3 {
		t.Errorf("evictions %d, want 3", m.StoreEvictions)
	}
	if m.StorePuts != 5 {
		t.Errorf("store puts %d, want 5", m.StorePuts)
	}
}

// TestMetricsSnapshotShape: the obs.Snapshot rendering carries every
// counter, gauge and histogram under the prefix, and its JSON form is a
// valid /debug/vars document.
func TestMetricsSnapshotShape(t *testing.T) {
	nodes := bootCluster(t, "chord", 3, "mem")
	for dst := range nodes {
		nodes[0].Lookup(overlay.ID(dst))
	}
	snap := MergeMetrics(nodes[0].Metrics(), nodes[1].Metrics()).Snapshot("node")
	var sb strings.Builder
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"node_reqs_out":`, `"node_store_len":`, `"node_hops":`,
		`"node_lookup_latency_us":`, `"counters"`, `"gauges"`, `"histograms"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot JSON missing %s:\n%s", want, out)
		}
	}
	var tb strings.Builder
	if err := snap.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "node_hops") {
		t.Errorf("snapshot text missing histogram line:\n%s", tb.String())
	}
}

// TestMergeMetricsIsFieldwise: merging random per-node Metrics equals
// field-wise sums (the fault tallies' fields included) and histogram
// merges, and every uint64 and
// obs.Histogram field of Metrics has its row in metricCounters or
// metricHists — so a counter added later cannot be forgotten in the
// merge or the rendered document.
func TestMergeMetricsIsFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uint64T, histT, faultsT := reflect.TypeOf(uint64(0)), reflect.TypeOf(obs.Histogram{}), reflect.TypeOf(fault.Counts{})
	ms := make([]Metrics, 5)
	for i := range ms {
		v := reflect.ValueOf(&ms[i]).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Type() {
			case uint64T:
				fv.SetUint(uint64(rng.Intn(1000)))
			case histT:
				h := fv.Addr().Interface().(*obs.Histogram)
				for n := rng.Intn(20); n > 0; n-- {
					h.Observe(int64(rng.Intn(5000)))
				}
			case faultsT:
				for k := 0; k < fv.NumField(); k++ {
					fv.Field(k).SetUint(uint64(rng.Intn(1000)))
				}
			case reflect.TypeOf(0):
				fv.SetInt(int64(rng.Intn(50)))
			case reflect.TypeOf(false):
				fv.SetBool(i == 3)
			default:
				t.Fatalf("Metrics.%s has type %s: teach this test (and MergeMetrics) about it", v.Type().Field(f).Name, fv.Type())
			}
		}
	}
	got := MergeMetrics(ms...)

	var want Metrics
	wv := reflect.ValueOf(&want).Elem()
	for i := range ms {
		v := reflect.ValueOf(&ms[i]).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv, wf := v.Field(f), wv.Field(f); fv.Type() {
			case uint64T:
				wf.SetUint(wf.Uint() + fv.Uint())
			case histT:
				wf.Addr().Interface().(*obs.Histogram).Merge(fv.Addr().Interface().(*obs.Histogram))
			case faultsT:
				for k := 0; k < fv.NumField(); k++ {
					wf.Field(k).SetUint(wf.Field(k).Uint() + fv.Field(k).Uint())
				}
			case reflect.TypeOf(0):
				wf.SetInt(wf.Int() + fv.Int())
			default:
				wf.SetBool(wf.Bool() || fv.Bool())
			}
		}
	}
	if got != want {
		t.Errorf("MergeMetrics\n got %+v\nwant %+v", got, want)
	}

	// Every counter and histogram field is in exactly one table row.
	rows := map[uintptr]int{}
	var probe Metrics
	for _, c := range metricCounters {
		rows[reflect.ValueOf(c.field(&probe)).Pointer()]++
	}
	for _, h := range metricHists {
		rows[reflect.ValueOf(h.field(&probe)).Pointer()]++
	}
	pv := reflect.ValueOf(&probe).Elem()
	for f := 0; f < pv.NumField(); f++ {
		if ft := pv.Field(f).Type(); ft != uint64T && ft != histT {
			continue
		}
		if n := rows[pv.Field(f).Addr().Pointer()]; n != 1 {
			t.Errorf("Metrics.%s has %d rows in metricCounters/metricHists, want 1", pv.Type().Field(f).Name, n)
		}
	}
}

// TestSnapshotCopiesEveryCounter: the node's loop-owned record has a
// field for every counter and fault tally of Metrics, and a snapshot
// copies each one and each histogram made so far — so a counter added
// to Metrics later cannot be forgotten in the record.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	nd := unstartedSolo(t)
	sv := reflect.ValueOf(&nd.stats).Elem()
	var want Metrics
	wv := reflect.ValueOf(&want).Elem()
	for f := 0; f < wv.NumField(); f++ {
		name := wv.Type().Field(f).Name
		switch fv := wv.Field(f); fv.Kind() {
		case reflect.Uint64:
			if name == "StoreEvictions" {
				continue // read from the store, not the record
			}
			rf := sv.FieldByName(name)
			if !rf.IsValid() {
				t.Fatalf("Metrics.%s has no field in the node's record", name)
			}
			rf.SetUint(uint64(f + 1))
			fv.SetUint(uint64(f + 1))
		case reflect.Struct:
			if fv.Type() == reflect.TypeOf(fault.Counts{}) {
				for k := 0; k < fv.NumField(); k++ {
					sv.FieldByName(name).Field(k).SetUint(uint64(100 + k))
					fv.Field(k).SetUint(uint64(100 + k))
				}
			}
		}
	}
	nd.stats.recordVerdict(OpGet, StatusOK, 3, 7*time.Microsecond)
	want.Hops.Observe(3)
	want.GetLatency.Observe(7)
	if got := nd.snapshotMetrics(); got != want {
		t.Errorf("snapshot\n got %+v\nwant %+v", got, want)
	}
}
