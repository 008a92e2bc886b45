package node

import (
	"time"

	"rcm/fault"
	"rcm/obs"
)

// Metrics is one node's instrumentation. The node's own record
// (Node.stats, a stats) is loop-owned like the rest of the routing state —
// handlers increment plain fields with no atomics or locks — so observing
// a node costs the hot path nothing beyond the increments themselves;
// Node.Metrics copies it in a turn of the node, so a snapshot is internally
// consistent. Histograms are value copies and merge freely across nodes
// (cluster stats, the rcmd metrics endpoint).
//
// Every uint64 and obs.Histogram field has one row in metricCounters or
// metricHists, which is what names, merges and renders it.
type Metrics struct {
	// ReqsIn/AcksIn/RespsIn count messages received while alive, by
	// kind; the Out counters count messages sent.
	ReqsIn, AcksIn, RespsIn    uint64
	ReqsOut, AcksOut, RespsOut uint64
	// DupReqs counts duplicate request deliveries dropped by the
	// dedupe window (lost-ACK retransmissions arriving twice).
	DupReqs uint64
	// Shed counts relayed requests this node refused — silently, with no
	// ACK — because its forward table was full (4096 relayed requests
	// awaiting acknowledgements); the sender's RTO machinery routes
	// around the overload.
	Shed uint64
	// Timeouts counts RTO expiries that found their attempt still
	// outstanding; Retransmits the re-sends to the same candidate;
	// Failovers the advances to the next candidate.
	Timeouts, Retransmits, Failovers uint64
	// Expired counts locally-originated requests concluded by the
	// origin's response guard instead of a verdict.
	Expired uint64
	// StoreGets/StoreHits/StorePuts count owner-side store operations;
	// StoreLen is the backend's current entry count and StoreEvictions
	// its eviction total (0 unless the backend reports evictions, as
	// the LRU store does).
	StoreGets, StoreHits, StorePuts uint64
	StoreLen                        int
	StoreEvictions                  uint64
	// InFlight is the number of forward attempts awaiting a hop ACK;
	// Waiting the number of locally-originated requests awaiting a
	// verdict. Down reports the kill switch.
	InFlight, Waiting int
	Down              bool
	// Hops is the hop-count distribution of locally-originated
	// requests that completed OK. LookupLatency/GetLatency/PutLatency
	// are issue-to-verdict latency distributions in microseconds.
	Hops                                  obs.Histogram
	LookupLatency, GetLatency, PutLatency obs.Histogram
	// Faults tallies what the node's fault plan injected (Config.Fault)
	// by fault.Counts' rule: the partition drops, corruptions, hold-backs
	// and duplicates of the requests it sent, and the requests it ignored
	// inside its stall episode. It is summed by MergeMetrics but not
	// rendered by Snapshot.
	Faults fault.Counts
}

// evictionCounter is the optional store capability behind
// Metrics.StoreEvictions.
type evictionCounter interface{ Evictions() uint64 }

// Metrics snapshots the node's instrumentation. The snapshot is taken
// in a turn of the node, between events, so counters and histograms are
// mutually consistent. A closed node returns the zero Metrics.
func (n *Node) Metrics() Metrics {
	ch := make(chan Metrics, 1)
	if !n.post(func() { ch <- n.snapshotMetrics() }) {
		return Metrics{}
	}
	return await(n, ch)
}

// snapshotMetrics copies the loop-owned record and fills in the gauges
// read from live state; in a turn only.
func (n *Node) snapshotMetrics() Metrics {
	s := &n.stats
	m := Metrics{
		ReqsIn: s.ReqsIn, AcksIn: s.AcksIn, RespsIn: s.RespsIn,
		ReqsOut: s.ReqsOut, AcksOut: s.AcksOut, RespsOut: s.RespsOut,
		DupReqs: s.DupReqs, Shed: s.Shed, Expired: s.Expired,
		Timeouts: s.Timeouts, Retransmits: s.Retransmits, Failovers: s.Failovers,
		StoreGets: s.StoreGets, StoreHits: s.StoreHits, StorePuts: s.StorePuts,
		Hops: histOf(s.hops), LookupLatency: histOf(s.lookupLatency),
		GetLatency: histOf(s.getLatency), PutLatency: histOf(s.putLatency),
		Faults: s.Faults,
	}
	m.StoreLen = n.store.Len()
	m.InFlight = n.reqs.fwds.inUse()
	m.Waiting = n.reqs.waits.inUse()
	m.Down = n.downNow.Load()
	if ec, ok := n.store.(evictionCounter); ok {
		m.StoreEvictions = ec.Evictions()
	}
	return m
}

// stats is a node's loop-owned record: Metrics' counters and fault
// tallies, and its four histograms behind pointers, each made by its first
// observation — an idle node carries none of their ≈ 5.3 KiB apiece, and a
// relay that originates nothing none at all.
type stats struct {
	ReqsIn, AcksIn, RespsIn                     uint64
	ReqsOut, AcksOut, RespsOut                  uint64
	DupReqs, Shed, Expired                      uint64
	Timeouts, Retransmits, Failovers            uint64
	StoreGets, StoreHits, StorePuts             uint64
	Faults                                      fault.Counts
	hops, lookupLatency, getLatency, putLatency *obs.Histogram
}

// countIn tallies a received message by kind; in a turn only.
func (s *stats) countIn(kind uint8) {
	switch kind {
	case msgReq:
		s.ReqsIn++
	case msgAck:
		s.AcksIn++
	case msgResp:
		s.RespsIn++
	}
}

// countOut tallies a sent message by kind; in a turn only.
func (s *stats) countOut(kind uint8) {
	switch kind {
	case msgReq:
		s.ReqsOut++
	case msgAck:
		s.AcksOut++
	case msgResp:
		s.RespsOut++
	}
}

// recordVerdict records a locally-originated request's outcome; in a
// turn only.
func (s *stats) recordVerdict(op Op, status Status, hops int, elapsed time.Duration) {
	if status == StatusOK {
		observe(&s.hops, int64(hops))
	}
	us := elapsed.Microseconds()
	switch op {
	case OpGet:
		observe(&s.getLatency, us)
	case OpPut:
		observe(&s.putLatency, us)
	default:
		observe(&s.lookupLatency, us)
	}
}

// histOf is the histogram h points at; empty while h is nil.
func histOf(h *obs.Histogram) obs.Histogram {
	if h == nil {
		return obs.Histogram{}
	}
	return *h
}

// observe records v in *h, making the histogram on its first observation.
func observe(h **obs.Histogram, v int64) {
	if *h == nil {
		*h = new(obs.Histogram)
	}
	(*h).Observe(v)
}

// metricCounters and metricHists name every counter and histogram of a
// Metrics once, in the (name-sorted) order the document renders them;
// MergeMetrics and Snapshot both walk them.
var metricCounters = []struct {
	name  string
	field func(*Metrics) *uint64
}{
	{"acks_in", func(m *Metrics) *uint64 { return &m.AcksIn }},
	{"acks_out", func(m *Metrics) *uint64 { return &m.AcksOut }},
	{"dup_reqs", func(m *Metrics) *uint64 { return &m.DupReqs }},
	{"expired", func(m *Metrics) *uint64 { return &m.Expired }},
	{"failovers", func(m *Metrics) *uint64 { return &m.Failovers }},
	{"reqs_in", func(m *Metrics) *uint64 { return &m.ReqsIn }},
	{"reqs_out", func(m *Metrics) *uint64 { return &m.ReqsOut }},
	{"resps_in", func(m *Metrics) *uint64 { return &m.RespsIn }},
	{"resps_out", func(m *Metrics) *uint64 { return &m.RespsOut }},
	{"retransmits", func(m *Metrics) *uint64 { return &m.Retransmits }},
	{"rto_timeouts", func(m *Metrics) *uint64 { return &m.Timeouts }},
	{"shed", func(m *Metrics) *uint64 { return &m.Shed }},
	{"store_evictions", func(m *Metrics) *uint64 { return &m.StoreEvictions }},
	{"store_gets", func(m *Metrics) *uint64 { return &m.StoreGets }},
	{"store_hits", func(m *Metrics) *uint64 { return &m.StoreHits }},
	{"store_puts", func(m *Metrics) *uint64 { return &m.StorePuts }},
}

var metricHists = []struct {
	name  string
	field func(*Metrics) *obs.Histogram
}{
	{"get_latency_us", func(m *Metrics) *obs.Histogram { return &m.GetLatency }},
	{"hops", func(m *Metrics) *obs.Histogram { return &m.Hops }},
	{"lookup_latency_us", func(m *Metrics) *obs.Histogram { return &m.LookupLatency }},
	{"put_latency_us", func(m *Metrics) *obs.Histogram { return &m.PutLatency }},
}

// MergeMetrics folds per-node snapshots into a cluster-wide aggregate:
// counters, gauges and fault tallies sum, histograms merge.
func MergeMetrics(ms ...Metrics) Metrics {
	var out Metrics
	for i := range ms {
		m := &ms[i]
		for _, c := range metricCounters {
			*c.field(&out) += *c.field(m)
		}
		for _, h := range metricHists {
			h.field(&out).Merge(h.field(m))
		}
		out.Faults.Add(m.Faults)
		out.StoreLen += m.StoreLen
		out.InFlight += m.InFlight
		out.Waiting += m.Waiting
		out.Down = out.Down || m.Down
	}
	return out
}

// Snapshot renders a Metrics as an obs.Snapshot — counters, gauges and
// the four histograms under the given name prefix, each section sorted
// by name — so cluster aggregates and single daemons serve the same
// /debug/vars-style document.
func (m Metrics) Snapshot(prefix string) obs.Snapshot {
	s := obs.Snapshot{
		Counters: make([]obs.NamedValue, 0, len(metricCounters)),
		Hists:    make([]obs.NamedHist, 0, len(metricHists)),
	}
	for _, c := range metricCounters {
		s.Counters = append(s.Counters, obs.NamedValue{Name: prefix + "_" + c.name, Value: int64(*c.field(&m))})
	}
	down := int64(0)
	if m.Down {
		down = 1
	}
	s.Gauges = []obs.NamedValue{
		{Name: prefix + "_down", Value: down},
		{Name: prefix + "_inflight", Value: int64(m.InFlight)},
		{Name: prefix + "_store_len", Value: int64(m.StoreLen)},
		{Name: prefix + "_waiting", Value: int64(m.Waiting)},
	}
	for _, h := range metricHists {
		s.Hists = append(s.Hists, obs.NamedHist{Name: prefix + "_" + h.name, Hist: *h.field(&m)})
	}
	return s
}
