// Package cluster bootstraps and drives whole populations of live
// rcm/node DHT nodes — every identifier in the space backed by a running
// node, over in-memory datagrams (one process, no sockets; on the wall
// clock or on virtual time) or real UDP loopback sockets. Its centerpiece
// is Replay: executing an eventsim
// schedule (the exact lifecycle and workload eventsim.Run would simulate)
// against the live cluster, so the conformance suite can pin live lookup
// outcomes to the simulator's predictions.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rcm"
	"rcm/eventsim"
	"rcm/fault"
	"rcm/node"
	"rcm/node/internal/clock"
	"rcm/obs"
	"rcm/overlay"
	"rcm/replica"
)

// Config configures a cluster.
type Config struct {
	// Protocol names the overlay in either registry vocabulary ("chord",
	// "ring", "kademlia", ...).
	Protocol string
	// Bits is the identifier length; the cluster runs 2^Bits nodes.
	Bits int
	// Seed seeds overlay construction and the fault plan's derived choices
	// (partition cut, stall episodes); use the simulation seed for
	// conformance.
	Seed uint64
	// Transport selects the substrate: "mem" (default; in-memory
	// datagrams on the wall clock), "sim" (in-memory datagrams on virtual
	// time, node.NewSimNetwork: no node goroutines, no sleeping, and a
	// Replay that is a function of its schedule) or "udp" (one loopback
	// socket per node).
	Transport string
	// Store is the per-node store spec ("mem", "lru:1024", ...); every
	// node gets its own fresh store.
	Store string
	// RTO, Retransmits, MaxHops and Deadline configure every node; see
	// node.Config. Zero selects the node defaults.
	RTO         time.Duration
	Retransmits int
	MaxHops     int
	Deadline    time.Duration
	// Replicas is the key replication factor every node operates with
	// (see node.Config.Replicas); 0 and 1 both mean no replication.
	Replicas int
	// Fault is an optional rcm/fault plan ("partition:2@1-3,dup:0.2",
	// ...); when set, every node's transport is wrapped in a
	// node.FaultTransport running the plan against the cluster's shared
	// plan clock, which Replay advances in schedule time — so the live
	// cluster suffers the same fault schedule an eventsim run of the
	// fault-wrapped transport simulates.
	Fault string
	// FaultHorizon is the plan's time horizon in schedule seconds
	// (stall-episode placement); use the schedule duration for
	// conformance. Defaults to 3600.
	FaultHorizon float64
	// FaultWallClock evaluates the plan against the network's clock —
	// seconds since boot, virtual on "sim" — instead of the
	// replay-driven schedule clock: for interactive clusters, where
	// nothing advances the schedule clock.
	FaultWallClock bool
	// AdaptiveRTO enables the per-peer adaptive retransmission timeout
	// on every node (see node.Config.AdaptiveRTO).
	AdaptiveRTO bool
	// MaxInFlight bounds every node's forward table (see
	// node.Config.MaxInFlight); 0 selects the node default.
	MaxInFlight int
}

// planClock is the cluster-wide fault-plan clock: Replay advances it to
// each event's schedule time, so windowed fault clauses fire in schedule
// time exactly as they do in simulated time.
type planClock struct{ bits atomic.Uint64 }

func (c *planClock) set(t float64) { c.bits.Store(math.Float64bits(t)) }
func (c *planClock) now() float64  { return math.Float64frombits(c.bits.Load()) }

// Cluster is a running population of live nodes, one per identifier.
type Cluster struct {
	proto  rcm.Protocol
	nodes  []*node.Node
	addrs  []string
	faults []*node.FaultTransport
	plan   planClock
	bounds []float64   // fault-plan window edges, ascending
	clk    clock.Clock // the network's: times a replayed lookup
}

// New builds the overlay, boots one node per identifier and starts them
// all. Callers own the cluster and must Close it.
func New(cfg Config) (*Cluster, error) {
	proto, err := rcm.NewProtocol(cfg.Protocol, rcm.Config{Bits: cfg.Bits, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	n := int(proto.Space().Size())
	c := &Cluster{
		proto: proto,
		nodes: make([]*node.Node, n),
		addrs: make([]string, n),
	}

	var mem *node.MemNetwork
	switch cfg.Transport {
	case "", "mem":
		mem = node.NewMemNetwork()
	case "sim":
		mem = node.NewSimNetwork()
	case "udp":
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q (have mem, sim, udp)", cfg.Transport)
	}

	transports := make([]node.Transport, n)
	for i := 0; i < n; i++ {
		var tr node.Transport
		if mem != nil {
			tr = mem.Endpoint()
		} else {
			tr, err = node.ListenUDP("127.0.0.1:0")
			if err != nil {
				c.closeTransports(transports[:i])
				return nil, err
			}
		}
		transports[i] = tr
		c.addrs[i] = tr.Addr()
	}
	c.clk = clock.Of(transports[0])

	if cfg.Fault != "" {
		plan, err := fault.Parse(cfg.Fault)
		if err != nil {
			c.closeTransports(transports)
			return nil, fmt.Errorf("cluster: %w", err)
		}
		horizon := cfg.FaultHorizon
		if horizon <= 0 {
			horizon = 3600
		}
		addrToID := make(map[string]uint64, n)
		for i, a := range c.addrs {
			addrToID[a] = uint64(i)
		}
		now := c.plan.now
		if cfg.FaultWallClock {
			now = nil // node.WrapFault defaults to the network's time since creation
		}
		c.faults = make([]*node.FaultTransport, n)
		for i := 0; i < n; i++ {
			ft, err := node.WrapFault(transports[i], node.FaultConfig{
				Plan:    plan,
				Seed:    cfg.Seed,
				Horizon: horizon,
				Self:    uint64(i),
				IDOf:    func(addr string) (uint64, bool) { id, ok := addrToID[addr]; return id, ok },
				Now:     now,
				// The in-memory (or loopback) substrate delivers in
				// microseconds, the simulated one in a millisecond; a small
				// hold budget keeps reordering well under any sane RTO,
				// mirroring the engine's inner-MaxLatency scaling.
				Latency: 2 * time.Millisecond,
			})
			if err != nil {
				c.closeTransports(transports)
				return nil, fmt.Errorf("cluster: %w", err)
			}
			transports[i] = ft
			c.faults[i] = ft
		}
		c.bounds = plan.Boundaries()
		sort.Float64s(c.bounds)
	}

	addrOf := func(id overlay.ID) string { return c.addrs[id] }
	for i := 0; i < n; i++ {
		store, err := node.ParseStore(cfg.Store)
		if err != nil {
			c.closeTransports(transports)
			c.closeStarted(i)
			return nil, err
		}
		nd, err := node.New(node.Config{
			Protocol:    proto,
			ID:          overlay.ID(i),
			Transport:   transports[i],
			AddrOf:      addrOf,
			Store:       store,
			RTO:         cfg.RTO,
			Retransmits: cfg.Retransmits,
			MaxHops:     cfg.MaxHops,
			Deadline:    cfg.Deadline,
			Replicas:    cfg.Replicas,
			AdaptiveRTO: cfg.AdaptiveRTO,
			MaxInFlight: cfg.MaxInFlight,
		})
		if err != nil {
			c.closeTransports(transports)
			c.closeStarted(i)
			return nil, err
		}
		c.nodes[i] = nd
		nd.Start()
	}
	return c, nil
}

func (c *Cluster) closeTransports(ts []node.Transport) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

func (c *Cluster) closeStarted(n int) {
	for i := 0; i < n; i++ {
		if c.nodes[i] != nil {
			c.nodes[i].Close()
		}
	}
}

// Len returns the population size.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// Protocol returns the shared overlay.
func (c *Cluster) Protocol() rcm.Protocol { return c.proto }

// Kill crashes node i (idempotent).
func (c *Cluster) Kill(i int) { c.nodes[i].Kill() }

// Restart revives node i (idempotent).
func (c *Cluster) Restart(i int) { c.nodes[i].Restart() }

// FaultCounts sums the faults injected so far across every node's
// wrapper (all zero when the cluster runs without a fault plan).
func (c *Cluster) FaultCounts() fault.Counts {
	var out fault.Counts
	for _, ft := range c.faults {
		out.Add(ft.Counts())
	}
	return out
}

// Metrics snapshots every node's instrumentation and merges it into a
// cluster-wide aggregate (counters sum, histograms merge).
func (c *Cluster) Metrics() node.Metrics {
	ms := make([]node.Metrics, len(c.nodes))
	for i, nd := range c.nodes {
		ms[i] = nd.Metrics()
	}
	return node.MergeMetrics(ms...)
}

// Close stops every node.
func (c *Cluster) Close() {
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func(nd *node.Node) {
			defer wg.Done()
			nd.Close()
		}(nd)
	}
	wg.Wait()
}

// Outcome is the live verdict of one scheduled lookup, index-aligned with
// the schedule's Lookups.
type Outcome struct {
	// T is the lookup's scheduled time (simulated seconds, for windowing).
	T float64
	// Skipped reports the lookup was not issued: src or dst was offline at
	// its scheduled time, eventsim's surviving-pair conditioning.
	Skipped bool
	// OK reports the issued lookup reached its owner.
	OK bool
	// Hops is the delivered route length (OK only).
	Hops int
	// Latency is the issue-to-verdict time of an issued lookup on the
	// network's clock — virtual time on "sim" — (zero when skipped).
	Latency time.Duration
}

// Report aggregates a replay, window-compatible with eventsim.Result.
type Report struct {
	// Duration is the schedule's horizon.
	Duration float64
	// Outcomes has one entry per scheduled lookup.
	Outcomes []Outcome
}

// WindowSuccess returns completed/started over lookups scheduled in
// [from, to] — the live counterpart of eventsim's Result.WindowSuccess.
// NaN when the window started no lookups.
func (r *Report) WindowSuccess(from, to float64) float64 {
	started, completed := 0, 0
	for _, o := range r.Outcomes {
		if o.Skipped || o.T < from || o.T > to {
			continue
		}
		started++
		if o.OK {
			completed++
		}
	}
	if started == 0 {
		return math.NaN()
	}
	return float64(completed) / float64(started)
}

// WindowMeanHops returns the mean hop count over completed lookups
// scheduled in [from, to] (NaN when none completed).
func (r *Report) WindowMeanHops(from, to float64) float64 {
	sum, completed := 0.0, 0
	for _, o := range r.Outcomes {
		if o.Skipped || !o.OK || o.T < from || o.T > to {
			continue
		}
		completed++
		sum += float64(o.Hops)
	}
	if completed == 0 {
		return math.NaN()
	}
	return sum / float64(completed)
}

// WindowHopDist returns the hop-count distribution over completed
// lookups scheduled in [from, to] — the live counterpart of
// eventsim's Result.WindowHopDist, and directly comparable to it:
// both observe integer hop counts into the same bucket layout, so on
// identical outcome sets the histograms are identical values.
func (r *Report) WindowHopDist(from, to float64) obs.Histogram {
	var h obs.Histogram
	for _, o := range r.Outcomes {
		if o.Skipped || !o.OK || o.T < from || o.T > to {
			continue
		}
		h.Observe(int64(o.Hops))
	}
	return h
}

// WindowLatency returns the lookup latency distribution (Outcome.Latency),
// in microseconds, over issued lookups scheduled in [from, to] — every
// verdict, not just successes, mirroring eventsim's latency histogram.
func (r *Report) WindowLatency(from, to float64) obs.Histogram {
	var h obs.Histogram
	for _, o := range r.Outcomes {
		if o.Skipped || o.T < from || o.T > to {
			continue
		}
		h.Observe(o.Latency.Microseconds())
	}
	return h
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// Concurrency bounds simultaneously in-flight lookups (default 64).
	// A "sim" cluster issues them one at a time.
	Concurrency int
}

// replayEvent is one schedule entry in the merged timeline.
type replayEvent struct {
	t      float64
	lookup int // index into sched.Lookups, or -1
	toggle int // index into sched.Toggles, or -1
}

// Replay executes an eventsim schedule against the live cluster: initial
// offline nodes are killed, toggles become Kill/Restart, and every
// scheduled lookup whose endpoints are up is issued as a live OpLookup
// from its source node. Events run in schedule-time order; real time is
// event-driven rather than wall-clock-scaled — before any lifecycle
// toggle applies, in-flight lookups are drained, so each lookup observes
// exactly the population state of its scheduled instant (the regime
// eventsim's own lookups see, since simulated routes complete fast
// against toggle spacing). On a "sim" cluster each lookup completes
// before the next is issued, so the whole replay is a function of the
// schedule: run twice, it gives equal Reports, latencies included.
//
// The report's windows are in schedule time, directly comparable to the
// eventsim.Result of the same Config — which is precisely what the
// conformance suite does.
//
// When the schedule's Params carry Replicas k > 1, each lookup freezes
// the live subset of its key's k-owner replica set at issue time — the
// live analogue of the engine's start-time eligibility mask — and fails
// over across it in placement order, folding every attempt's route cost
// into the one Outcome, exactly as the engine folds prior hops into a
// replicated lookup's total.
func (c *Cluster) Replay(sched *eventsim.Schedule, opt ReplayOptions) (*Report, error) {
	if sched.Nodes != len(c.nodes) {
		return nil, fmt.Errorf("cluster: schedule population %d != cluster population %d", sched.Nodes, len(c.nodes))
	}
	conc := opt.Concurrency
	if conc <= 0 {
		conc = 64
	}
	k := sched.Params.Replicas
	var repl []overlay.ID
	if k > 1 {
		var err error
		for root := 0; root < len(c.nodes); root++ {
			repl, err = replica.For(c.proto, c.proto.Space(), repl, overlay.ID(root), k)
			if err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
		}
		k = len(repl) / len(c.nodes)
	}

	offline := make([]bool, len(c.nodes))
	for i, off := range sched.InitialOffline {
		if off {
			offline[i] = true
			c.Kill(i)
		}
	}

	events := make([]replayEvent, 0, len(sched.Lookups)+len(sched.Toggles))
	for i, lk := range sched.Lookups {
		events = append(events, replayEvent{t: lk.T, lookup: i, toggle: -1})
	}
	for i, tg := range sched.Toggles {
		events = append(events, replayEvent{t: tg.T, lookup: -1, toggle: i})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].t < events[b].t })

	report := &Report{
		Duration: sched.Duration,
		Outcomes: make([]Outcome, len(sched.Lookups)),
	}
	lookup := func(src int, owners []overlay.ID, out *Outcome) {
		start := c.clk.Now()
		for _, o := range owners {
			res := c.nodes[src].Lookup(o)
			out.Hops += res.Hops
			if res.OK() {
				out.OK = true
				break
			}
		}
		out.Latency = c.clk.Now() - start
	}
	_, serial := c.clk.(*clock.Virtual)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	drained := true

	bi := 0
	for _, ev := range events {
		// Advance the fault-plan clock, draining in-flight lookups before
		// it crosses a plan window edge: every lookup then observes one
		// side of each fault window — the regime the engine's lookups see
		// when the scenario keeps guard gaps around the edges, which is
		// what makes fault cells conformance-pinnable.
		for bi < len(c.bounds) && ev.t >= c.bounds[bi] {
			if !drained {
				wg.Wait()
				drained = true
			}
			bi++
		}
		c.plan.set(ev.t)

		if ev.toggle >= 0 {
			if !drained {
				wg.Wait()
				drained = true
			}
			tg := sched.Toggles[ev.toggle]
			if offline[tg.Node] == !tg.Up {
				continue // idempotent, like the engine's handleToggle
			}
			offline[tg.Node] = !tg.Up
			if tg.Up {
				c.Restart(tg.Node)
			} else {
				c.Kill(tg.Node)
			}
			continue
		}

		lk := sched.Lookups[ev.lookup]
		out := &report.Outcomes[ev.lookup]
		out.T = lk.T
		var owners []overlay.ID
		if k > 1 {
			for i := 0; i < k; i++ {
				if o := repl[lk.Dst*k+i]; !offline[o] {
					owners = append(owners, o)
				}
			}
		} else if !offline[lk.Dst] {
			owners = []overlay.ID{overlay.ID(lk.Dst)}
		}
		if offline[lk.Src] || len(owners) == 0 {
			out.Skipped = true
			continue
		}
		if serial {
			lookup(lk.Src, owners, out)
			continue
		}
		drained = false
		sem <- struct{}{}
		wg.Add(1)
		go func(src int, owners []overlay.ID, out *Outcome) {
			defer wg.Done()
			defer func() { <-sem }()
			lookup(src, owners, out)
		}(lk.Src, owners, out)
	}
	wg.Wait()
	return report, nil
}
