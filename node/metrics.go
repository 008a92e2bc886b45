package node

import (
	"time"

	"rcm/obs"
)

// stats is the node's instrumentation. It is loop-owned like the rest
// of the routing state — handlers increment plain fields with no
// atomics or locks, and snapshots are taken by a closure posted into
// the loop — so observing a node costs the hot path nothing beyond the
// increments themselves.
type stats struct {
	reqsIn, acksIn, respsIn    uint64
	reqsOut, acksOut, respsOut uint64
	dupReqs                    uint64 // duplicate request deliveries dropped by the dedupe window
	shed                       uint64 // relayed requests refused (unacked) because the forward table was full
	timeouts                   uint64 // RTO expiries acted on (stale timer pops excluded)
	retransmits                uint64 // re-sends to the same candidate
	failovers                  uint64 // candidate-list advances after exhausted retransmissions
	expired                    uint64 // locally-originated requests that hit the response guard

	storeGets, storeHits, storePuts uint64

	// hops records the route length of locally-originated requests that
	// completed OK; the per-op latencies record microseconds from issue
	// to verdict (any status), measured at the origin.
	hops                      obs.Histogram
	lookupLat, getLat, putLat obs.Histogram
}

// Metrics is a point-in-time snapshot of one node's instrumentation,
// taken on the event loop so it is internally consistent. Histograms
// are value copies and merge freely across nodes (cluster stats, the
// rcmd metrics endpoint).
type Metrics struct {
	// ReqsIn/AcksIn/RespsIn count messages received while alive, by
	// kind; the Out counters count messages sent.
	ReqsIn, AcksIn, RespsIn    uint64
	ReqsOut, AcksOut, RespsOut uint64
	// DupReqs counts duplicate request deliveries dropped by the
	// dedupe window (lost-ACK retransmissions arriving twice).
	DupReqs uint64
	// Shed counts relayed requests this node refused — silently, with no
	// ACK — because its forward table was at Config.MaxInFlight; the
	// sender's RTO machinery routes around the overload.
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
}

// evictionCounter is the optional store capability behind
// Metrics.StoreEvictions.
type evictionCounter interface{ Evictions() uint64 }

// Metrics snapshots the node's instrumentation. The snapshot is taken
// by the event loop between events, so counters and histograms are
// mutually consistent. A closed node returns the zero Metrics.
func (n *Node) Metrics() Metrics {
	var m Metrics
	done := make(chan struct{})
	if n.post(func() {
		m = n.snapshotMetrics()
		close(done)
	}) {
		<-done
	}
	return m
}

// snapshotMetrics assembles a Metrics from loop-owned state; loop
// goroutine only.
func (n *Node) snapshotMetrics() Metrics {
	m := Metrics{
		ReqsIn: n.stats.reqsIn, AcksIn: n.stats.acksIn, RespsIn: n.stats.respsIn,
		ReqsOut: n.stats.reqsOut, AcksOut: n.stats.acksOut, RespsOut: n.stats.respsOut,
		DupReqs:       n.stats.dupReqs,
		Shed:          n.stats.shed,
		Timeouts:      n.stats.timeouts,
		Retransmits:   n.stats.retransmits,
		Failovers:     n.stats.failovers,
		Expired:       n.stats.expired,
		StoreGets:     n.stats.storeGets,
		StoreHits:     n.stats.storeHits,
		StorePuts:     n.stats.storePuts,
		StoreLen:      n.store.Len(),
		InFlight:      len(n.pending),
		Waiting:       len(n.origins),
		Down:          n.downNow.Load(),
		Hops:          n.stats.hops,
		LookupLatency: n.stats.lookupLat,
		GetLatency:    n.stats.getLat,
		PutLatency:    n.stats.putLat,
	}
	if ec, ok := n.store.(evictionCounter); ok {
		m.StoreEvictions = ec.Evictions()
	}
	return m
}

// countIn tallies a received message by kind; loop goroutine only.
func (s *stats) countIn(kind uint8) {
	switch kind {
	case msgReq:
		s.reqsIn++
	case msgAck:
		s.acksIn++
	case msgResp:
		s.respsIn++
	}
}

// countOut tallies a sent message by kind; loop goroutine only.
func (s *stats) countOut(kind uint8) {
	switch kind {
	case msgReq:
		s.reqsOut++
	case msgAck:
		s.acksOut++
	case msgResp:
		s.respsOut++
	}
}

// recordVerdict records a locally-originated request's outcome; loop
// goroutine only.
func (s *stats) recordVerdict(op Op, status Status, hops int, elapsed time.Duration) {
	if status == StatusOK {
		s.hops.Observe(int64(hops))
	}
	us := elapsed.Microseconds()
	switch op {
	case OpGet:
		s.getLat.Observe(us)
	case OpPut:
		s.putLat.Observe(us)
	default:
		s.lookupLat.Observe(us)
	}
}

// MergeMetrics folds per-node snapshots into a cluster-wide aggregate:
// counters and gauges sum, histograms merge.
func MergeMetrics(ms ...Metrics) Metrics {
	var out Metrics
	for i := range ms {
		m := &ms[i]
		out.ReqsIn += m.ReqsIn
		out.AcksIn += m.AcksIn
		out.RespsIn += m.RespsIn
		out.ReqsOut += m.ReqsOut
		out.AcksOut += m.AcksOut
		out.RespsOut += m.RespsOut
		out.DupReqs += m.DupReqs
		out.Shed += m.Shed
		out.Timeouts += m.Timeouts
		out.Retransmits += m.Retransmits
		out.Failovers += m.Failovers
		out.Expired += m.Expired
		out.StoreGets += m.StoreGets
		out.StoreHits += m.StoreHits
		out.StorePuts += m.StorePuts
		out.StoreLen += m.StoreLen
		out.StoreEvictions += m.StoreEvictions
		out.InFlight += m.InFlight
		out.Waiting += m.Waiting
		out.Down = out.Down || m.Down
		out.Hops.Merge(&m.Hops)
		out.LookupLatency.Merge(&m.LookupLatency)
		out.GetLatency.Merge(&m.GetLatency)
		out.PutLatency.Merge(&m.PutLatency)
	}
	return out
}

// Snapshot renders a Metrics into an obs registry snapshot shape —
// counters, gauges, and the four histograms under the given name
// prefix — so cluster aggregates and single daemons serve the same
// /debug/vars-style document.
func (m Metrics) Snapshot(prefix string) obs.Snapshot {
	counters := []obs.NamedValue{
		{Name: prefix + "_acks_in", Value: int64(m.AcksIn)},
		{Name: prefix + "_acks_out", Value: int64(m.AcksOut)},
		{Name: prefix + "_dup_reqs", Value: int64(m.DupReqs)},
		{Name: prefix + "_expired", Value: int64(m.Expired)},
		{Name: prefix + "_failovers", Value: int64(m.Failovers)},
		{Name: prefix + "_reqs_in", Value: int64(m.ReqsIn)},
		{Name: prefix + "_reqs_out", Value: int64(m.ReqsOut)},
		{Name: prefix + "_resps_in", Value: int64(m.RespsIn)},
		{Name: prefix + "_resps_out", Value: int64(m.RespsOut)},
		{Name: prefix + "_retransmits", Value: int64(m.Retransmits)},
		{Name: prefix + "_rto_timeouts", Value: int64(m.Timeouts)},
		{Name: prefix + "_shed", Value: int64(m.Shed)},
		{Name: prefix + "_store_evictions", Value: int64(m.StoreEvictions)},
		{Name: prefix + "_store_gets", Value: int64(m.StoreGets)},
		{Name: prefix + "_store_hits", Value: int64(m.StoreHits)},
		{Name: prefix + "_store_puts", Value: int64(m.StorePuts)},
	}
	down := int64(0)
	if m.Down {
		down = 1
	}
	gauges := []obs.NamedValue{
		{Name: prefix + "_down", Value: down},
		{Name: prefix + "_inflight", Value: int64(m.InFlight)},
		{Name: prefix + "_store_len", Value: int64(m.StoreLen)},
		{Name: prefix + "_waiting", Value: int64(m.Waiting)},
	}
	hists := []obs.NamedHist{
		{Name: prefix + "_get_latency_us", Hist: m.GetLatency},
		{Name: prefix + "_hops", Hist: m.Hops},
		{Name: prefix + "_lookup_latency_us", Hist: m.LookupLatency},
		{Name: prefix + "_put_latency_us", Hist: m.PutLatency},
	}
	return obs.Snapshot{Counters: counters, Gauges: gauges, Hists: hists}
}
