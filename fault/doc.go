// Package fault defines deterministic, spec-parseable fault plans that
// both executors — the discrete-event engine (rcm/eventsim) and the
// live node layer (rcm/node) — inject identically, extending the
// conformance methodology from "live matches sim" to "live matches sim
// under injected adversity".
//
// A plan is a comma list of clauses in the module's name[:arg] spec
// grammar:
//
//	partition:<groups>@<t0>-<t1>   id-hash groups, cross-group blackhole
//	delayspike:<factor>@<t0>-<t1>  multiply request latency in the window
//	dup:<p>                        duplicate each request with prob. p
//	reorder:<p>                    hold a request back with prob. p
//	corrupt:<p>                    corrupt a request with prob. p
//	stall:<p>:<mean>               node alive but ignoring requests
//
// for example "partition:2@1-2,dup:0.1". A plan is the one way to inject
// faults, loss ("corrupt") included, in both executors: eventsim takes it
// as eventsim.Config.Fault, live clusters as cluster.Config.Fault and
// single nodes as node.Config.Fault. Plan.String renders the
// canonical spelling, and Parse(p.String()) reproduces p.
//
// # Determinism contract
//
// Every clause applies to forward (request) traffic only:
// acknowledgements and responses are never faulted.
// That keeps eventsim's ACK-ownership invariant intact and means a
// partition never needs to fault a response — a request only ever
// reaches a holder inside the sender's own group, so replies never
// cross the cut.
//
// Binding a plan (Plan.Bind) fixes its seed-derived choices. Partition
// group membership and stall episodes are pure functions of
// (seed, node), so the simulator and a live cluster bound to the same
// seed agree exactly on who is cut from whom and who stalls when; the
// Injector is stateless and safe for concurrent use. The probabilistic
// clauses (dup, reorder, corrupt) are decided there too: Injector.Coins
// flips them as mix64 outputs of the seed and the transmission's key
// (Hop: the lookup's scheduled instant, sender, receiver, owner, hop
// count and try), which eventsim derives from its schedule and a live
// node from the request header and its replay clock. Both executors
// therefore make the same decision for the same transmission and count
// it by the one rule on Counts, which is what the conformance grid in
// node/cluster pins per lookup and per tally.
//
// # Writing a custom plan
//
// Compose clauses programmatically or through Parse; validate before
// use:
//
//	plan := fault.Plan{
//		Partition: &fault.Partition{Groups: 2, Window: fault.Window{From: 1, To: 2}},
//		Dup:       0.1,
//	}
//	if err := plan.Validate(); err != nil { ... }
//	inj := plan.Bind(seed, duration)
//	if inj.CrossPartition(src, dst, t) { /* drop the request */ }
//
// An executor integrating a new clause kind follows three rules: fault
// requests only; report the worst-case delivered latency through
// Plan.InflateMax so retransmission-timeout validation stays safe; and
// derive every choice from the seed via the Injector — (seed, node) or
// (seed, Hop) — so the other executor can make it too, never from a
// private stream or the wall clock (the package is lint-enforced
// wall-clock-free, see internal/lint).
//
// To extend the grammar itself, register a clause factory in this
// package (see fault.go's init) — the name then resolves everywhere
// plans parse: Parse itself, cluster.Config.Fault and the -fault flags
// of cmd/eventsim and cmd/rcmd.
package fault
