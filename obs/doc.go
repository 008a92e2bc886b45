// Package obs is the framework's shared observability layer: a
// deterministic, mergeable, allocation-free histogram plus lightweight
// counter/gauge registries. Every layer of the stack records into it —
// eventsim shards at epoch barriers, the live node event loop, cluster
// replay reports, and the rcmd metrics endpoint — so the same bucket
// boundaries and the same rendering describe simulated and real runs.
// RTT, the round-trip estimator behind both executors' adaptive
// retransmission timeout, lives here for the same reason: one
// definition, two instantiations.
//
// # Adding a custom metric
//
// The obs package has two recording disciplines, chosen by who owns
// the data:
//
// 1. Concurrent counters and gauges. Anything updated from multiple
// goroutines uses the registry's atomic types. Create on first use and
// record:
//
//	var served = obs.Default().Counter("myapp_requests_served")
//
//	func handle() {
//		served.Inc()
//		obs.Default().Gauge("myapp_queue_depth").Set(int64(len(queue)))
//	}
//
// Counters only go up; gauges move both ways. Names are flat strings —
// the convention is subsystem_metric_unit (node_msgs_in,
// node_lookup_latency_us). Everything in obs.Default() appears
// automatically at the rcmd -metrics-addr endpoint and in the
// interactive cluster's stats command.
//
// 2. Single-owner histograms. Histogram is deliberately not
// thread-safe: the deterministic pattern is that each writer (a sim
// shard, a node event loop) owns its own value, observes without
// synchronization or allocation, and merges or snapshots at a
// boundary it already owns:
//
//	type loop struct {
//		latency obs.Histogram // owned by the event loop goroutine
//	}
//
//	func (l *loop) record(us int64) { l.latency.Observe(us) }
//
// To publish it, register a snapshot provider that captures behind the
// owner's synchronization — for a node event loop, a posted closure:
//
//	obs.Default().RegisterHistogram("myapp_latency_us", func() obs.Histogram {
//		var snap obs.Histogram
//		l.post(func() { snap = l.latency }) // value copy inside the loop
//		return snap
//	})
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
