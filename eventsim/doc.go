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
// timeout fires. With churn disabled and no fault plan, every lookup
// ends as the static simulator's Route ends on the same failed set, in
// outcome and in hops, under the one hop budget Space.MaxHops —
// TestRouteIdentity holds it per lookup — so everything the event layer
// adds (latency, loss, churn races, maintenance traffic) is measured
// against a validated baseline.
//
// # Engine design
//
// The engine is goroutine-frugal at the simulation level: no goroutine
// per node or per message. By default a run is one shard: one event
// queue, drained inline on the caller's goroutine, with no worker, no
// epoch hand-off between shards and no cross-shard acknowledgement list.
// That is the right shape wherever many runs go at once — rcm/exp's cell
// pool runs figures' and grids' event cells in parallel — and the shard
// workers below are opt-in (Config.Shards > 1, cmd/eventsim -shards) for
// one large run that has the cores to itself.
//
// The population is interleaved across Shards shards (node % Shards),
// each owning an event queue (a hierarchical timing wheel; see queue.go
// and timingwheel.go), a deterministic splitmix64 RNG stream, its nodes'
// online flags and routing-table rows, a FIFO ring of in-flight forward
// attempts, and per-bucket metric accumulators. Every mutable per-node or
// per-attempt datum lives in its owner shard's own allocations rather
// than in globally interleaved arrays, so two shards never write the same
// cache line; the only shared mutable engine state — the alive-snapshot
// bitset — is written exclusively between epochs, and the program's
// lookups and the replica placement table are read-only for the run.
//
// Virtual time advances in epochs of one "lookahead" — the transport's
// minimum latency. One shard is drained inline, epoch after epoch. With
// more, worker goroutines are spawned once per run and parked on a
// channel barrier: each epoch the coordinator releases every worker with
// the epoch boundary, the workers drain their local queues concurrently,
// and the coordinator joins them before running the barrier. On any core
// count the workers' results are bit-identical by construction, since
// shards touch disjoint mutable state within an epoch. At the barrier,
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
// The scenario's program — its lookups and lifecycle toggles — stays in
// the Schedule, which is read-only for the run, and enters the queues an
// epoch at a time. Before the clock starts one counting sort indexes every
// shard's share by time, into buckets of whole lookaheads: one uint32 per
// item (the item's place in the program) plus a table of each bucket's
// offset and earliest time, no longer than the program. At the start of an
// epoch each shard pushes its buckets that can hold an item due before the
// epoch's end, so its queue holds what is in flight and what comes due
// next, not the whole run. An item's sequence number is its place in the
// program (lookup i is i, toggle j is the lookup count plus j) and the
// shard's own counter starts past the whole program, so equal-time events
// tie exactly as if the program had been pushed before the clock started.
// The program not yet pushed is pending work, and its earliest time bounds
// the idle skip, so epochs — and the online fractions sampled at their
// barriers — fall where they would with the program queued up front.
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
// pending work. A record leaves the ring only in the epoch its
// deadline comes due in, so a bare attempt id in a request is safe without
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
// event total is that of an engine that queues acks and timeouts. The
// deadline of an acknowledged attempt does nothing but retire its record,
// so before it bounds the queue's pop the shard retires every acknowledged
// head due in the epoch at once, counting each as the event it was; a
// deadline takes its own (t, seq) turn only while it is live.
//
// Bucket accounting divides a time by the bucket width. A message, timer
// or toggle is accounted at its own time, which lies in the current epoch,
// so each shard computes at the top of an epoch whether the whole epoch
// maps to one bucket — bucketOf is monotone, so its first time and the
// last float64 before its end decide it — and accounts such an epoch's
// events with no division. A lookup's start, completion and failure are
// accounted at its scheduled start time and still divide.
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
// Config.Fault takes a fault plan (rcm/fault) — the one way to inject
// network faults, loss included: timed partitions and delay spikes,
// duplication, reordering, corruption (a dropped request: this is loss)
// and per-node stall episodes. The Transport stays a latency model.
// Every clause faults requests only — acks stay reliable, because that
// is the model a live node can reproduce exactly. rcm/fault decides and
// tallies each request's fate: fault.Injector.Send in dispatch, from a
// key a live replay derives too (fault.Hop), and fault.Injector.Receive
// in the request and duplicate handlers, at the lookup's scheduled
// instant. A live node given the same plan (node.Config.Fault) calls the
// same two, so it decides and counts alike. The engine only applies the
// fate: a hold-back adds Hold × the transport's MaxLatency, a delay
// spike scales the sampled latencies, and a duplicate's latency comes
// from the shard's stream. The tallies land in Result.Faults, and runs stay
// bit-identical across (Seed, Shards); without a plan, runs are
// bit-identical to builds that predate the capability. The faultstorm
// scenario (a stable population under steady uniform load) is the
// intended substrate: under it, every deviation from the fault-free
// baseline is the plan's.
//
// The retransmission timeout is fixed: 2×MaxLatency + MinLatency, with
// MaxLatency the transport's bound inflated by the plan
// (fault.Plan.InflateMax), so the invariant the pending ring relies on,
// RTO > 2×MaxLatency, holds
// under every plan. The forwarding model is the paper's — greedy, no backtracking,
// independently failed nodes — and has no retransmission timer of its
// own to adapt.
package eventsim
