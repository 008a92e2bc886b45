package eventsim

import (
	"fmt"
	"math"

	"rcm/fault"
	"rcm/internal/dht"
	"rcm/internal/registry"
	"rcm/obs"
	"rcm/overlay"
	"rcm/replica"
)

// OverlayConfig is the canonical overlay-construction configuration — the
// same type as rcm.Config — re-exported for building Config.Overlay.
type OverlayConfig = registry.Config

// Config configures one event-simulation run. Protocol, Overlay.Bits and
// Scenario are required; every other field has a documented default.
type Config struct {
	// Protocol names the overlay in either registry vocabulary (system
	// names or the paper's geometry terms), including user registrations.
	// The protocol must implement the Forwarder capability.
	Protocol string
	// Overlay is the overlay-construction configuration. Bits is required;
	// a zero Seed is replaced by the run Seed.
	Overlay registry.Config
	// Scenario names the scenario in the scenario registry.
	Scenario string
	// Params tunes the scenario; see Params for the defaults.
	Params Params
	// Transport models the network (default Constant{} — 50 ms, lossless).
	Transport Transport
	// Seed drives every random stream of the run (default 1).
	Seed uint64
	// Shards is the number of event wheels the population is interleaved
	// across (node % Shards). The default is 4. Results are deterministic
	// for a fixed (Seed, Shards) pair: each shard owns its nodes' random
	// streams, so the shard count is part of what a run computes, not a
	// free performance knob.
	Shards int
	// Duration is the total simulated time (default 10; in-flight lookups
	// are drained to completion past it).
	Duration float64
	// Buckets is the number of equal time buckets metrics aggregate into
	// (default 10).
	Buckets int
	// Maintain enables message-level maintenance: Maintainer join on every
	// scenario join event, plus periodic per-node stabilization. It is
	// ignored (with no error) for protocols without the Maintainer
	// capability, e.g. the structural hypercube.
	Maintain bool
	// StabilizeEvery is the per-node stabilization period (default 1).
	StabilizeEvery float64
	// Retransmits is how many times a forwarding node re-sends to the
	// *same* candidate after a timeout before failing over to the next
	// one (default 2; negative disables retransmission). Without it a
	// single lost request would permanently skip the best next hop. The
	// timeout itself is not a knob: it is 2×Transport.MaxLatency() +
	// MinLatency(), the tightest value that exceeds the worst-case round
	// trip, so an acknowledged hop is never duplicated.
	Retransmits int
	// Trace samples per-lookup hop traces: every Trace-th scheduled
	// lookup (by schedule index; 1 records all) has its full path —
	// start, per-hop sends and acceptances, retransmission timeouts,
	// failovers, and the final verdict — recorded into Result.Traces.
	// Zero (the default) disables tracing. Traces are bit-identical
	// across (Seed, Shards), like every other output.
	Trace int
}

func (cfg Config) withDefaults() Config {
	if cfg.Transport == nil {
		cfg.Transport = Constant{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Overlay.Seed == 0 {
		cfg.Overlay.Seed = cfg.Seed
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 10
	}
	if cfg.StabilizeEvery <= 0 {
		cfg.StabilizeEvery = 1
	}
	switch {
	case cfg.Retransmits == 0:
		cfg.Retransmits = 2
	case cfg.Retransmits < 0:
		cfg.Retransmits = 0
	}
	cfg.Params = cfg.Params.withDefaults(cfg.Duration)
	return cfg
}

// rto is the retransmission timeout a forwarding node waits before
// trying again: 2×max + min, the tightest value above the worst-case
// round trip. Validate still checks it, because a user Transport's
// bounds are outside input (2×max can overflow, or swallow min).
func (cfg Config) rto() float64 {
	return 2*cfg.Transport.MaxLatency() + cfg.Transport.MinLatency()
}

// Validate rejects configurations the engine cannot run soundly. It is
// called by Run; exported so plans can be checked before execution.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if _, ok := LookupScenario(cfg.Scenario); !ok {
		return scenarios.Unknown(cfg.Scenario)
	}
	if err := validateTransport(cfg.Transport); err != nil {
		return err
	}
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	rto := cfg.rto()
	for _, f := range []struct {
		name string
		v    float64
	}{{"Duration", cfg.Duration}, {"StabilizeEvery", cfg.StabilizeEvery}, {"RTO (2×MaxLatency + MinLatency)", rto}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("eventsim: %s = %v must be positive and finite", f.name, f.v)
		}
	}
	if min := 2 * cfg.Transport.MaxLatency(); rto <= min {
		return fmt.Errorf("eventsim: RTO (2×MaxLatency + MinLatency) = %v must exceed the worst-case round trip %v — a shorter timeout would duplicate acknowledged hops", rto, min)
	}
	if cfg.Shards > 256 {
		return fmt.Errorf("eventsim: Shards = %d out of [1,256]", cfg.Shards)
	}
	if cfg.Trace < 0 {
		return fmt.Errorf("eventsim: Trace = %d must be >= 0 (0 off, N samples every Nth lookup)", cfg.Trace)
	}
	return nil
}

// QEff returns the steady-state offline fraction the configured scenario
// converges to — the static model's equivalent failure probability, which
// rcm/exp uses to place analytic and static-simulation comparison columns
// on event rows.
func (cfg Config) QEff() float64 {
	return cfg.Params.EffectiveOffline(cfg.Scenario, cfg.withDefaults().Duration)
}

// Bucket aggregates one time window of a run. Lookup outcomes (Started,
// Completed, Failed, Skipped, SumHops, SumLatency) are attributed to the
// bucket the lookup *started* in, so Success is exact per cohort; message
// and timeout tallies are attributed to the bucket they occurred in.
type Bucket struct {
	// Start and End bound the window in simulated time.
	Start, End float64
	// Started counts lookups that began with both endpoints online;
	// Skipped counts scheduled lookups that did not (the static model's
	// conditioning on surviving pairs).
	Started, Skipped int
	// Completed and Failed partition the started cohort's outcomes.
	Completed, Failed int
	// Timeouts counts retransmission-timer expiries.
	Timeouts int
	// LookupMessages counts lookup requests plus acknowledgements;
	// MaintMessages counts join/stabilization traffic. The final bucket
	// also absorbs the drain-phase traffic of lookups still in flight at
	// the horizon.
	LookupMessages, MaintMessages int
	// RepairMessages counts re-replication traffic: with Replicas k > 1,
	// every effective lifecycle toggle charges the k messages its replica
	// groups spend restoring the k-copy invariant. Zero when replication
	// is off.
	RepairMessages int
	// SumHops and SumLatency accumulate over the completed cohort.
	SumHops, SumLatency float64
	// OnlineFraction is the alive fraction at the bucket's start.
	OnlineFraction float64
}

// Success returns Completed/Started, or NaN for an empty cohort.
func (b Bucket) Success() float64 {
	if b.Started == 0 {
		return math.NaN()
	}
	return float64(b.Completed) / float64(b.Started)
}

// MeanHops returns the mean hop count over completed lookups (NaN when
// none completed).
func (b Bucket) MeanHops() float64 {
	if b.Completed == 0 {
		return math.NaN()
	}
	return b.SumHops / float64(b.Completed)
}

// MeanLatency returns the mean completion latency (NaN when none
// completed).
func (b Bucket) MeanLatency() float64 {
	if b.Completed == 0 {
		return math.NaN()
	}
	return b.SumLatency / float64(b.Completed)
}

// add accumulates counters (not the window bounds or online fraction).
func (b *Bucket) add(o Bucket) {
	b.Started += o.Started
	b.Skipped += o.Skipped
	b.Completed += o.Completed
	b.Failed += o.Failed
	b.Timeouts += o.Timeouts
	b.LookupMessages += o.LookupMessages
	b.MaintMessages += o.MaintMessages
	b.RepairMessages += o.RepairMessages
	b.SumHops += o.SumHops
	b.SumLatency += o.SumLatency
}

// Result is one run's metric series plus run identity.
type Result struct {
	// Protocol, Scenario and Transport identify the run.
	Protocol, Scenario, Transport string
	// Bits, Nodes and Shards describe the population and its sharding.
	Bits, Nodes, Shards int
	// Replicas is the effective replication factor the run placed keys
	// with (1 = no replication).
	Replicas int
	// Duration is the configured simulated time.
	Duration float64
	// Buckets is the time-bucketed metric series.
	Buckets []Bucket
	// HopDist and LatDist are the per-bucket hop-count and latency
	// distributions over each bucket's completed cohort, indexed like
	// Buckets (lookups attribute to the bucket they started in).
	// Latencies are recorded in microseconds of simulated time. Like
	// every Result field they are bit-identical across (Seed,
	// Shards).
	HopDist, LatDist []obs.Histogram
	// Traces holds the sampled per-lookup hop traces, ascending by
	// lookup index; empty unless Config.Trace > 0.
	Traces []Trace
	// Lookups is the number of scheduled lookups; Events the total event
	// count the engine processed, each acknowledgement and retransmission
	// deadline counted as one event.
	Lookups int
	Events  uint64
	// Faults tallies the injected faults when Config.Transport is a
	// Faulty (all zero otherwise), per kind; deterministic like every
	// other Result field.
	Faults fault.Counts
}

// Totals returns the whole-run aggregate: counters summed, the window
// spanning the run, and the final bucket's online fraction.
func (r *Result) Totals() Bucket {
	var t Bucket
	for _, b := range r.Buckets {
		t.add(b)
	}
	if n := len(r.Buckets); n > 0 {
		t.Start, t.End = r.Buckets[0].Start, r.Buckets[n-1].End
		t.OnlineFraction = r.Buckets[n-1].OnlineFraction
	}
	return t
}

// WindowSuccess aggregates lookup success over the buckets fully inside
// [from, to] — the cross-validation window helper. NaN when the window
// started no lookups.
func (r *Result) WindowSuccess(from, to float64) float64 {
	started, completed := 0, 0
	for _, b := range r.Buckets {
		if b.Start >= from && b.End <= to {
			started += b.Started
			completed += b.Completed
		}
	}
	if started == 0 {
		return math.NaN()
	}
	return float64(completed) / float64(started)
}

// WindowHopDist merges the hop-count distributions of the buckets fully
// inside [from, to] into one histogram — the distribution-level
// counterpart of WindowSuccess, and what the live-cluster conformance
// suite pins replayed hop distributions against. Empty (Count() == 0)
// when the window completed no lookups.
func (r *Result) WindowHopDist(from, to float64) obs.Histogram {
	return mergeWindow(r.Buckets, r.HopDist, from, to)
}

// WindowLatencyDist merges the latency distributions (microseconds of
// simulated time) of the buckets fully inside [from, to].
func (r *Result) WindowLatencyDist(from, to float64) obs.Histogram {
	return mergeWindow(r.Buckets, r.LatDist, from, to)
}

func mergeWindow(buckets []Bucket, dists []obs.Histogram, from, to float64) obs.Histogram {
	var h obs.Histogram
	for i := range dists {
		if buckets[i].Start >= from && buckets[i].End <= to {
			h.Merge(&dists[i])
		}
	}
	return h
}

// programScenario resolves and programs the configured scenario for a
// population of n nodes into a Schedule, reproducing the exact
// deterministic RNG stream Run executes: the root stream is seeded
// cfg.Seed ^ "EVENT" and the scenario consumes the first Split. The returned root has the scenario's split
// already consumed, so RunOverlay's subsequent per-shard splits see the
// same stream whether or not a schedule was built separately. cfg must
// already have defaults applied.
func programScenario(cfg Config, n int) (*Schedule, Scenario, *overlay.RNG, error) {
	factory, ok := LookupScenario(cfg.Scenario)
	if !ok {
		return nil, nil, nil, fmt.Errorf("eventsim: unknown scenario %q", cfg.Scenario)
	}
	scen, err := factory(cfg.Params)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("eventsim: scenario %q: %w", cfg.Scenario, err)
	}

	root := overlay.NewRNG(cfg.Seed ^ 0x4556454e54) // "EVENT"
	env := &Env{
		s:   &Schedule{Nodes: n, Duration: cfg.Duration, Params: cfg.Params, InitialOffline: make([]bool, n)},
		rng: root.Split(),
	}
	if err := scen.Program(env); err != nil {
		return nil, nil, nil, fmt.Errorf("eventsim: scenario %q: %w", cfg.Scenario, err)
	}
	if env.err != nil {
		return nil, nil, nil, fmt.Errorf("eventsim: scenario %q: %w", cfg.Scenario, env.err)
	}
	return env.s, scen, root, nil
}

// Run builds the named overlay through the shared registry and simulates
// the configured scenario on it, returning the bucketed metric series.
func Run(cfg Config) (*Result, error) {
	full := cfg.withDefaults()
	p, err := dht.New(full.Protocol, full.Overlay)
	if err != nil {
		return nil, fmt.Errorf("eventsim: %w", err)
	}
	return RunOverlay(p, cfg)
}

// RunOverlay is Run on a caller-constructed overlay — the hook for sharing
// an already-built (read-only) overlay across runs. The overlay must
// implement Forwarder and must not be shared with concurrent users when
// cfg.Maintain is set: maintenance mutates routing tables in place.
func RunOverlay(p registry.Protocol, cfg Config) (*Result, error) {
	return runOverlay(p, cfg, func(delta float64) eventQueue { return newWheelQueue(delta) })
}

// runOverlay is RunOverlay with the per-shard event queue supplied by the
// caller — the seam through which the differential tests and
// BenchmarkEventSimScheduler run the engine on the binary-heap reference
// queue that lives beside them.
func runOverlay(p registry.Protocol, cfg Config, newQueue func(delta float64) eventQueue) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fwd, ok := p.(registry.Forwarder)
	if !ok {
		return nil, fmt.Errorf("eventsim: protocol %q does not implement the Forwarder capability required for message-level simulation", p.Name())
	}
	if _, sparse := p.(dht.Populated); sparse {
		return nil, fmt.Errorf("eventsim: protocol %q declares a sparse population; eventsim currently simulates fully-populated overlays only", p.Name())
	}
	n := int(p.Space().Size())
	if n < 2 {
		return nil, fmt.Errorf("eventsim: population %d too small", n)
	}
	shards := cfg.Shards
	if shards > n {
		shards = n
	}

	sched, scen, root, err := programScenario(cfg, n)
	if err != nil {
		return nil, err
	}

	// Replication: the whole placement table is built before the clock
	// starts, so the hot path reads it like the lookups (read-shared,
	// never invalidated) and a buggy Replicator opt-in fails here, loudly,
	// not mid-run. k == 1 leaves the table empty and the engine on the
	// exact unreplicated code path.
	repl, k, err := replica.Table(p, p.Space(), cfg.Params.Replicas)
	if err != nil {
		return nil, fmt.Errorf("eventsim: %w", err)
	}

	e := &engine{
		cfg:        cfg,
		fwd:        fwd,
		n:          n,
		snapshot:   overlay.NewBitset(n),
		lookups:    sched.Lookups,
		k:          k,
		repl:       repl,
		width:      cfg.Duration / float64(cfg.Buckets),
		delta:      cfg.Transport.MinLatency(),
		rto:        cfg.rto(),
		maxHops:    p.Space().MaxHops(),
		onlineFrac: make([]float64, cfg.Buckets),
		trace:      cfg.Trace,
	}
	if ft, ok := cfg.Transport.(Faulty); ok {
		// Bind the fault plan to the run: seed-derived partition groups and
		// stall episodes are fixed here, once, so every shard and scheduler
		// sees the same schedule. innerMax is the unwrapped bound the
		// reorder clause holds requests back by.
		e.inj = ft.Plan.Bind(cfg.Seed, cfg.Duration)
		e.innerMax = ft.inner().MaxLatency()
	}
	if cfg.Maintain {
		if mnt, ok := p.(registry.Maintainer); ok {
			e.mnt = mnt
		}
	}
	e.shards = make([]*shard, shards)
	for i := range e.shards {
		e.shards[i] = &shard{
			id:      i,
			eng:     e,
			q:       newQueue(e.delta),
			rng:     root.Split(),
			online:  make([]bool, n),
			started: overlay.NewBitset(len(sched.Lookups)),
			outbox:  make([][]ev, shards),
			inbox:   make([][]ev, shards),
			ackOut:  make([][]uint32, shards),
			ackIn:   make([][]uint32, shards),
			sentMin: math.Inf(1),
			acc:     make([]bucketAcc, cfg.Buckets),
		}
	}

	// Initial population state: each owner shard's online array plus the
	// shared snapshot.
	for i := 0; i < n; i++ {
		if !sched.InitialOffline[i] {
			e.shards[i%shards].online[i] = true
			e.snapshot.Set(i)
			e.onlineCount++
		}
	}

	// Pre-schedule the scenario's program, in deterministic order: the
	// workload, then lifecycle toggles, then stabilization timers.
	for li, l := range sched.Lookups {
		src := uint32(l.Src)
		e.shards[e.shardOf(src)].push(ev{t: l.T, kind: evStart, node: src, lk: uint32(li)})
	}
	for _, tg := range sched.Toggles {
		kind := evDown
		if tg.Up {
			kind = evUp
		}
		node := uint32(tg.Node)
		e.shards[e.shardOf(node)].push(ev{t: tg.T, kind: kind, node: node})
	}
	if e.mnt != nil {
		for i := 0; i < n; i++ {
			sh := e.shards[e.shardOf(uint32(i))]
			// Jittered phase so stabilization load spreads evenly.
			sh.push(ev{t: sh.rng.Float64() * cfg.StabilizeEvery, kind: evStab, node: uint32(i)})
		}
	}

	e.run()

	res := &Result{
		Protocol:  p.Name(),
		Scenario:  scen.Name(),
		Transport: cfg.Transport.Name(),
		Bits:      p.Space().Bits(),
		Nodes:     n,
		Shards:    shards,
		Replicas:  k,
		Duration:  cfg.Duration,
		Buckets:   make([]Bucket, cfg.Buckets),
		HopDist:   make([]obs.Histogram, cfg.Buckets),
		LatDist:   make([]obs.Histogram, cfg.Buckets),
		Lookups:   len(sched.Lookups),
	}
	for bi := range res.Buckets {
		b := &res.Buckets[bi]
		b.Start = float64(bi) * e.width
		b.End = float64(bi+1) * e.width
		b.OnlineFraction = e.onlineFrac[bi]
		for _, sh := range e.shards {
			acc := &sh.acc[bi]
			b.add(acc.Bucket)
			// Folding shard histograms in shard order is deterministic by
			// construction: Merge is commutative, so any order would do.
			res.HopDist[bi].Merge(&acc.hops)
			res.LatDist[bi].Merge(&acc.lat)
		}
	}
	res.Traces = e.mergeTraces()
	for _, sh := range e.shards {
		res.Events += sh.events
		res.Faults.Add(sh.faults)
	}
	return res, nil
}
