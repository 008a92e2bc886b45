// Package obs is the framework's shared observability layer: a
// deterministic, mergeable, allocation-free histogram and Snapshot, the
// one shape every metrics document is rendered from. Every layer of the
// stack records into it — eventsim shards at epoch barriers, the live
// node event loop, cluster replay reports, and the rcmd metrics endpoint
// — so the same bucket boundaries and the same rendering describe
// simulated and real runs.
//
// # Adding a custom metric
//
// There is one path: the writer owns the data, and renders it through a
// Snapshot. Histogram is deliberately not thread-safe, and a counter is a
// plain integer field beside it: each writer (a sim shard, a node event
// loop) owns its own values, records without synchronization or
// allocation, and merges or copies them out at a boundary it already
// owns:
//
//	type loop struct {
//		served  uint64        // owned by the event loop goroutine
//		latency obs.Histogram
//	}
//
//	func (l *loop) record(us int64) { l.served++; l.latency.Observe(us) }
//
// To publish, copy the values out behind the owner's synchronization —
// for a node event loop, a posted closure — and name them in a Snapshot,
// each section sorted by name (names are flat strings; the convention is
// subsystem_metric_unit: node_reqs_in, node_lookup_latency_us):
//
//	func (l *loop) Snapshot() obs.Snapshot {
//		var served uint64
//		var lat obs.Histogram
//		l.post(func() { served, lat = l.served, l.latency }) // value copies inside the loop
//		return obs.Snapshot{
//			Counters: []obs.NamedValue{{Name: "myapp_served", Value: int64(served)}},
//			Hists:    []obs.NamedHist{{Name: "myapp_latency_us", Hist: lat}},
//		}
//	}
//
// Snapshot.WriteJSON and WriteText are what rcmd's -metrics-addr endpoint
// and the interactive cluster's stats command serve; node.Metrics (its
// counter table, the Node.AddMetrics fold and Snapshot) is the in-repo
// instance of the pattern.
//
// Because bucket boundaries are fixed, histograms from different
// owners Merge commutatively: fold shard copies in any order and the
// result is bit-identical. That property is load-bearing — eventsim's
// (Seed, Shards) bit-identity suite compares merged Histogram values
// with ==, so never introduce merge-order- or time-dependent state
// into a histogram.
//
// Determinism rules: obs is in rcmlint's DetPackages set, so code in
// this package (and histogram call sites in other determinism-critical
// packages) must not read wall clocks (time.Now) or the global
// math/rand source. Timestamps come from the virtual clock in
// simulation and from the caller at the live layer.
package obs
