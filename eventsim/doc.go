// Package eventsim is the framework's fourth modeling layer: a
// discrete-event, message-level simulator in which registry protocols run
// real lookup dynamics — hop-by-hop request forwarding, acknowledgements,
// retransmission timeouts, joins and periodic stabilization — over a
// pluggable network transport, driven by a name-registered scenario
// library.
//
// Where the analytic layer (package rcm) evaluates closed forms and the
// graph layer (internal/sim) routes on a static failure pattern with
// global knowledge, eventsim gives every node only what a real node has:
// its own routing table and the evidence of timeouts. A forwarding node
// picks its best candidate (registry.Forwarder order), waits for an
// acknowledgement, and falls through to the next candidate when the
// timeout fires. With churn disabled and a lossless transport, the set of
// pairs that complete is exactly the set the static greedy model routes —
// the cross-validation test in crossvalidate_test.go enforces agreement —
// so everything the event layer adds (latency, loss, churn races,
// maintenance traffic) is measured against a validated baseline.
//
// # Engine design
//
// The engine is goroutine-frugal at the simulation level: no goroutine
// per node or per message — one persistent worker per shard, and none at
// all on serial hardware. The population is interleaved across a small
// number of shards (node % Shards), each owning an event queue (a
// hierarchical timing wheel; see queue.go and timingwheel.go), a
// deterministic splitmix64 RNG stream, its nodes' online flags and
// routing-table rows, a FIFO ring of in-flight forward attempts, and
// per-bucket metric accumulators. Every mutable per-node or
// per-attempt datum lives in its owner shard's own allocations rather
// than in globally interleaved arrays, so two shards never write the same
// cache line; the only shared mutable engine state — the alive-snapshot
// bitset — is written exclusively between epochs, and the program's
// lookups and the replica placement table are read-only for the run.
//
// Virtual time advances in epochs of one "lookahead" — the transport's
// minimum latency. Worker goroutines are spawned once per run and parked
// on a channel barrier: each epoch the coordinator releases every worker
// with the epoch boundary, the workers drain their local queues
// concurrently, and the coordinator joins them before running the
// barrier. (With one shard, or GOMAXPROCS=1, the shards are drained
// inline in shard order instead — bit-identical by construction, since
// shards touch disjoint mutable state within an epoch.) At the barrier,
// node lifecycle changes are folded into the global alive-snapshot
// bitset, and cross-shard messages (which always carry at least one
// lookahead of latency, so they can never arrive inside the epoch that
// sent them) change hands: the coordinator swaps each source shard's
// outbox for the destination's emptied inbox — slice headers only — and
// every shard pushes its own inbox into its own queue, in source-shard
// order, as the first act of its next epoch. Delivery therefore runs on
// the shard workers, in parallel, into the cache that will drain the
// events, and the coordinator's serial section is O(Shards²) words. Until
// a message is pushed it is in no queue, so each shard also reports the
// least arrival time it sent; the coordinator counts that as pending work
// and never idle-skips past it. No sorting happens anywhere: queue order
// is (arrival time, push sequence), so push order only decides ties
// between equal-time events, and per-source delivery gives them the tie
// order — send order within a source, source-shard order across sources —
// that a stable sort by arrival time over the concatenated outboxes would
// have produced, at none of its cost. Deferring the pushes to the
// destination changes nothing about that order, sequence numbers
// included: nothing else touches a shard's queue between the barrier and
// the shard's next epoch.
//
// The snapshot is frozen during an epoch, which makes the one view remote
// nodes have of the population (used by lookup conditioning and
// maintenance) both deterministic and realistically stale. A lookup's
// schedule-time identity (endpoints, start time, accounting bucket) is
// read-only for the whole run; its travelling state — the hop count —
// rides inside the request messages, so ownership of a lookup passes from
// shard to shard with the message and no per-lookup record is ever
// written concurrently. Results are bit-identical for a fixed
// (Seed, Shards) pair regardless of GOMAXPROCS and how the host schedules
// the shard workers.
//
// Acknowledgements are modeled reliable (loss applies to requests), and
// the retransmission timeout must exceed the worst-case round trip, so a
// timeout never fires for a hop that actually succeeded: a lookup is
// never duplicated in flight. Neither timeouts nor acknowledgements are
// queue events. The RTO is one constant per run and a shard arms
// attempts in non-decreasing event time, so its attempts come due in the
// order they were armed: each shard keeps them in a power-of-two ring,
// addressed by a monotone uint32 attempt id (slot id & mask; growth
// re-lays the in-flight range under the new mask), and each record holds
// its deadline with a sequence number drawn like any push's. The shard
// merges the ring's head with its event queue in exact (t, seq) order —
// the queue pops up to a (t, seq) bound — and counts a non-empty ring as
// pending work. A record leaves the ring only when its
// deadline comes due, so a bare attempt id in a request is safe without
// a generation tag and steady-state forwarding allocates nothing. The
// record also stashes the chosen next hop, so retransmissions to the
// same candidate skip the Forwarder's candidate enumeration entirely.
//
// An acknowledgement is a write of the record's live flag. The receiver
// still draws the ack's latency, because that draw is part of its
// shard's random stream, but nothing waits for it: a same-shard
// acknowledgement clears the flag at once, and a cross-shard one travels
// to the sender's shard in a per-destination id list that changes hands
// at the barrier and is applied first thing next epoch. Applying it
// earlier than the ack would have landed cannot be observed, because the
// flag is read only by the attempt's own deadline, and that deadline
// cannot come due before the acknowledgement is applied. The request
// reached the receiver at most MaxLatency after the send, in an epoch
// ending at most one lookahead (MinLatency) later, and the RTO of
// 2×MaxLatency + MinLatency puts the deadline at least MaxLatency past
// that epoch's end: the acknowledgement is applied before the sender's
// shard processes anything at or after that end.
// Result.Events counts each acknowledgement when it is applied, so the
// event total is that of an engine that queues acks and timeouts.
//
// # Defining a custom Scenario
//
// A Scenario programs the run before the clock starts: it sets initial
// node states, schedules failures, joins and churn processes, and lays
// out the lookup workload. Implement the two-method interface and
// register a factory; the name then resolves everywhere the built-ins do
// (eventsim.Run, rcm/exp event plans, the cmd/eventsim -scenario flag).
//
// A minimal "blackout" scenario — a full-region outage that heals after a
// while, under a steady uniform workload:
//
//	type blackout struct{ p eventsim.Params }
//
//	func (b blackout) Name() string { return "blackout" }
//
//	func (b blackout) Program(env *eventsim.Env) error {
//		p := env.Params()
//		n := env.Nodes()
//		// Fail one contiguous quarter of the identifier space at
//		// FailTime, and bring it back halfway to the horizon.
//		start := env.RNG().Intn(n)
//		heal := (p.FailTime + env.Duration()) / 2
//		for i := 0; i < n/4; i++ {
//			env.FailAt(p.FailTime, (start+i)%n)
//			env.JoinAt(heal, (start+i)%n)
//		}
//		// Steady uniform workload for the whole run.
//		env.PoissonLookups(0, env.Duration(), p.Rate, nil)
//		return nil
//	}
//
//	func init() {
//		eventsim.RegisterScenario("blackout",
//			func(p eventsim.Params) (eventsim.Scenario, error) {
//				return blackout{p}, nil
//			})
//	}
//
// Three rules keep a scenario sound: draw every random choice from
// env.RNG() (that is what makes runs reproducible), schedule only inside
// [0, env.Duration()], and do all scheduling inside Program — the Env is
// dead once the run starts. Run it like any built-in:
//
//	res, err := eventsim.Run(eventsim.Config{
//		Protocol: "chord",
//		Overlay:  eventsim.OverlayConfig{Bits: 12},
//		Scenario: "blackout",
//		Maintain: true,
//	})
//	for _, bkt := range res.Buckets {
//		fmt.Printf("t<%.1f success=%.3f online=%.2f\n",
//			bkt.End, bkt.Success(), bkt.OnlineFraction)
//	}
//
// The joins at heal time trigger Maintainer.Join when Maintain is set, so
// the healed region rebuilds its tables toward the population the
// snapshot shows — watch MaintMessages spike in that bucket.
//
// # Defining a custom Lifetime
//
// The churn-family scenarios (churn, heavytail, diurnal, tracechurn)
// draw node session and downtime durations from the pluggable
// distribution library in rcm/eventsim/lifetime. A family is a *shape*
// with the mean left free — the scenario pins it to Params.MeanOnline /
// MeanOffline, which is what keeps every family on the same equivalent
// failure probability q_eff = E[off]/(E[on]+E[off]) and makes lifetime
// shapes comparable at equal mean online time.
//
// A custom family implements the two-method pair and registers a parse
// factory; the name then resolves everywhere the built-ins do
// (Params.Lifetime/Downtime, exp event plans, the cmd/eventsim -lifetime
// and -downtime flags). A deterministic "uniform" family, spelled
// uniform[:halfwidth-fraction]:
//
//	// uniformFam samples U[mean·(1−w), mean·(1+w)].
//	type uniformFam struct{ w float64 }
//
//	func (u uniformFam) Name() string { return fmt.Sprintf("uniform(w=%g)", u.w) }
//
//	func (u uniformFam) Dist(mean float64) (lifetime.Dist, error) {
//		if u.w < 0 || u.w >= 1 {
//			return nil, fmt.Errorf("uniform halfwidth %v out of [0,1)", u.w)
//		}
//		if !(mean > 0) {
//			return nil, fmt.Errorf("uniform mean %v must be positive", mean)
//		}
//		return uniformDist{mean: mean, w: u.w}, nil
//	}
//
//	type uniformDist struct{ mean, w float64 }
//
//	func (d uniformDist) Name() string  { return "uniform" }
//	func (d uniformDist) Mean() float64 { return d.mean }
//	func (d uniformDist) Sample(rng *overlay.RNG) float64 {
//		return d.mean * (1 - d.w + 2*d.w*rng.Float64())
//	}
//
//	func init() {
//		lifetime.Register("uniform", func(arg string) (lifetime.Family, error) {
//			w := 0.5
//			if arg != "" {
//				v, err := strconv.ParseFloat(arg, 64)
//				if err != nil {
//					return nil, err
//				}
//				w = v
//			}
//			f := uniformFam{w: w}
//			if _, err := f.Dist(1); err != nil {
//				return nil, err // validate the shape up front
//			}
//			return f, nil
//		})
//	}
//
// Run it against any churn-family scenario:
//
//	res, err := eventsim.Run(eventsim.Config{
//		Protocol: "chord",
//		Overlay:  eventsim.OverlayConfig{Bits: 12},
//		Scenario: "heavytail",
//		Params:   eventsim.Params{Lifetime: "uniform:0.2", MeanOnline: 2},
//	})
//
// Two rules: draw every sample from the rng the engine passes (runs stay
// reproducible) and return strictly positive finite durations — the
// scheduler treats a non-positive sample as a programming error. Sampling
// happens while the scenario pre-schedules lifecycles, so a Dist may be
// arbitrarily stateful per call but must not retain the RNG.
//
// # Replication
//
// Setting Params.Replicas to k > 1 places every key on k distinct owners
// instead of one. Placement comes from rcm/replica: a protocol that
// implements replica.Replicator chooses its own replica geometry
// (kademlia places XOR-adjacent identifiers), every other protocol gets
// the classic ring-successor set — root first, then k−1 clockwise
// neighbours. Because placement is a pure function of (space, root, k),
// the live layer (rcm/node with Config.Replicas) computes the same sets,
// and the conformance suite pins the two executors to exact agreement.
//
// A replicated lookup freezes its owner-eligibility mask at start time:
// the replica set is intersected with the epoch's alive snapshot once,
// and the lookup carries that bitmask for its whole life. When routing
// toward the current owner dead-ends (timeout budget exhausted or no
// candidate closer), the lookup fails over to the next eligible owner in
// placement order and keeps its accumulated hop count — failover is a
// continuation, not a fresh attempt, which is what makes mean hops rise
// with k under churn. A lookup fails only when every start-time-eligible
// owner has been tried. The freeze mirrors a real resolver working from
// a membership view sampled when the query was issued.
//
// Replication is not free, and the engine bills it: with k > 1, every
// effective churn toggle (a node actually changing liveness) charges k
// repair messages — the re-replication traffic the survivors must send
// to restore the replication factor — into that bucket's
// Bucket.RepairMessages. Result.Replicas records the effective factor.
// Compare the two sides of the bargain:
//
//	for _, k := range []int{1, 3} {
//		res, err := eventsim.Run(eventsim.Config{
//			Protocol: "chord",
//			Overlay:  eventsim.OverlayConfig{Bits: 10},
//			Scenario: "heavytail",
//			Params:   eventsim.Params{Replicas: k},
//			Maintain: true,
//		})
//		// success rises with k; RepairMessages is the price
//	}
//
// With Replicas 0 or 1 the replication path is disabled outright and
// runs are bit-identical to builds that predate the capability. Figure
// E20 (internal/figures, "frontier") tabulates the full
// latency-vs-maintenance frontier this opens, including where the
// singlehop protocol's O(1) routing claim breaks under heavy-tailed
// churn and how much of the loss k=3 replication buys back.
//
// # Fault injection
//
// Wrapping the transport in a Faulty (spec: fault:<plan>[/<inner>],
// plans from rcm/fault) injects network faults beyond the lossy model:
// timed partitions and delay spikes, duplication, reordering, corruption
// and per-node stall episodes. Every clause faults requests only — acks
// stay reliable, like the lossy transport, and for the same reason: it
// is the model a live wrapper can reproduce exactly. Each request's
// decision is fault.Injector.Coins of a key a live replay derives too
// (fault.Hop), and stalls are read at the lookup's scheduled instant, so
// node.FaultTransport decides alike; only a duplicate's latency comes
// from the shard's stream. Faults are billed into Result.Faults by the
// rule on fault.Counts, and runs stay bit-identical across (Seed,
// Shards); without a plan, runs are bit-identical to builds that
// predate the capability. The faultstorm scenario (a stable
// population under steady uniform load) is the intended substrate:
// under it, every deviation from the lossless baseline is the plan's.
//
// The retransmission timeout is fixed: 2×MaxLatency + MinLatency of
// the transport, and a Faulty reports the plan-inflated MaxLatency, so
// the invariant the pending ring relies on, RTO > 2×MaxLatency, holds
// under every plan. The forwarding model is the paper's — greedy, no backtracking,
// independently failed nodes — and has no retransmission timer of its
// own to adapt.
package eventsim
