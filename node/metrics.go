package node

import (
	"time"

	"rcm/fault"
	"rcm/obs"
)

// Metrics is the instrumentation of one node or the sum of several. The
// node's own record (Node.stats, a stats) is loop-owned like the rest of
// the routing state — handlers increment plain fields with no atomics or
// locks — so observing a node costs the hot path nothing beyond the
// increments themselves. Node.AddMetrics folds it into a Metrics in a
// turn of the node; a node's snapshot and a cluster's aggregate (the
// cluster stats, the rcmd metrics endpoint) are both such folds.
//
// Every Counters field has one row in metricCounters, and every histogram
// one in metricHists, which is what names, sums and renders it.
type Metrics struct {
	Counters
	// StoreLen is the store backend's current entry count.
	StoreLen int
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
	// inside its stall episode. AddMetrics sums it; Snapshot does not
	// render it.
	Faults fault.Counts
}

// Counters are a node's event counts, spelled once for Metrics and for
// the node's loop-owned record, which both embed them.
type Counters struct {
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
	// StoreGets/StoreHits/StorePuts count owner-side store operations.
	StoreGets, StoreHits, StorePuts uint64
	// StoreEvictions is the store backend's eviction total (0 unless the
	// backend reports evictions, as the LRU store does). The fold reads
	// it from the store, so the node's record leaves it zero.
	StoreEvictions uint64
}

// evictionCounter is the optional store capability behind
// Metrics.StoreEvictions.
type evictionCounter interface{ Evictions() uint64 }

// Metrics snapshots the node's instrumentation: a zero record plus
// AddMetrics. A closed node returns the zero Metrics.
func (n *Node) Metrics() Metrics {
	var m Metrics
	n.AddMetrics(&m)
	return m
}

// AddMetrics adds the node's instrumentation into *m in a turn of the
// node, between events, so what it adds is mutually consistent: counters,
// gauges and fault tallies sum, Down is or-ed, and the histograms the
// node has made merge. A closed node adds nothing. The caller must not
// touch *m until AddMetrics returns.
func (n *Node) AddMetrics(m *Metrics) {
	done := make(chan struct{}, 1)
	if n.post(func() { n.addMetrics(m); done <- struct{}{} }) {
		await(n, done)
	}
}

// addMetrics is AddMetrics' turn.
func (n *Node) addMetrics(m *Metrics) {
	s := &n.stats
	for _, c := range metricCounters {
		*c.field(&m.Counters) += *c.field(&s.Counters)
	}
	m.Faults.Add(s.Faults)
	mergeMade(&m.Hops, s.hops)
	mergeMade(&m.LookupLatency, s.lookupLatency)
	mergeMade(&m.GetLatency, s.getLatency)
	mergeMade(&m.PutLatency, s.putLatency)
	m.StoreLen += n.store.Len()
	m.InFlight += n.reqs.fwds.inUse()
	m.Waiting += n.reqs.waits.inUse()
	m.Down = m.Down || n.downNow.Load()
	if ec, ok := n.store.(evictionCounter); ok {
		m.StoreEvictions += ec.Evictions()
	}
}

// mergeMade merges h into dst unless h has not been made.
func mergeMade(dst, h *obs.Histogram) {
	if h != nil {
		dst.Merge(h)
	}
}

// stats is a node's loop-owned record: Metrics' counters and fault
// tallies, and its four histograms behind pointers, each made by its first
// observation — an idle node carries none of their ≈ 5.3 KiB apiece, and a
// relay that originates nothing none at all.
type stats struct {
	Counters
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

// observe records v in *h, making the histogram on its first observation.
func observe(h **obs.Histogram, v int64) {
	if *h == nil {
		*h = new(obs.Histogram)
	}
	(*h).Observe(v)
}

// metricCounters and metricHists name every counter and histogram of a
// Metrics once, in the (name-sorted) order the document renders them;
// Snapshot walks both, and AddMetrics sums the counters by metricCounters.
var metricCounters = []struct {
	name  string
	field func(*Counters) *uint64
}{
	{"acks_in", func(c *Counters) *uint64 { return &c.AcksIn }},
	{"acks_out", func(c *Counters) *uint64 { return &c.AcksOut }},
	{"dup_reqs", func(c *Counters) *uint64 { return &c.DupReqs }},
	{"expired", func(c *Counters) *uint64 { return &c.Expired }},
	{"failovers", func(c *Counters) *uint64 { return &c.Failovers }},
	{"reqs_in", func(c *Counters) *uint64 { return &c.ReqsIn }},
	{"reqs_out", func(c *Counters) *uint64 { return &c.ReqsOut }},
	{"resps_in", func(c *Counters) *uint64 { return &c.RespsIn }},
	{"resps_out", func(c *Counters) *uint64 { return &c.RespsOut }},
	{"retransmits", func(c *Counters) *uint64 { return &c.Retransmits }},
	{"rto_timeouts", func(c *Counters) *uint64 { return &c.Timeouts }},
	{"shed", func(c *Counters) *uint64 { return &c.Shed }},
	{"store_evictions", func(c *Counters) *uint64 { return &c.StoreEvictions }},
	{"store_gets", func(c *Counters) *uint64 { return &c.StoreGets }},
	{"store_hits", func(c *Counters) *uint64 { return &c.StoreHits }},
	{"store_puts", func(c *Counters) *uint64 { return &c.StorePuts }},
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
		s.Counters = append(s.Counters, obs.NamedValue{Name: prefix + "_" + c.name, Value: int64(*c.field(&m.Counters))})
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
