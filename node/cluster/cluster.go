// Package cluster bootstraps and drives whole populations of live
// rcm/node DHT nodes — every identifier in the space backed by a running
// node, over in-memory datagrams (one process, no sockets; on the wall
// clock or on virtual time) or real UDP loopback sockets. Its centerpiece
// is Replay: executing an eventsim schedule (the very lifecycle and
// workload program eventsim.Run executes) against the live cluster, so
// the conformance suite can pin live lookup outcomes to the simulator's
// predictions.
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
	// RTO, Retransmits and Deadline configure every node; see
	// node.Config. Zero selects the node defaults.
	RTO         time.Duration
	Retransmits int
	Deadline    time.Duration
	// Replicas is the key replication factor every node operates with
	// (see node.Config.Replicas); 0 and 1 both mean no replication.
	Replicas int
	// Fault is an optional rcm/fault plan ("partition:2@1-3,dup:0.2",
	// ...); when set, every node's transport is wrapped in a
	// node.FaultTransport running the plan against the cluster's shared
	// plan clock. Replay advances that clock in schedule time — so the
	// live cluster suffers the same fault schedule an eventsim run of the
	// fault-wrapped transport simulates — and before any Replay it reads
	// the network's seconds since boot (virtual on "sim"), so an
	// interactive cluster's windowed clauses fire on its own time.
	Fault string
	// FaultHorizon is the plan's time horizon in schedule seconds
	// (stall-episode placement); use the schedule duration for
	// conformance. Zero selects node.FaultConfig's default.
	FaultHorizon float64
}

// replayConcurrency bounds a Replay's simultaneously in-flight lookups
// on the wall-clock transports; a "sim" cluster issues them one at a
// time.
const replayConcurrency = 64

// Cluster is a running population of live nodes, one per identifier.
type Cluster struct {
	proto  rcm.Protocol
	nodes  []*node.Node
	addrs  []string
	faults []*node.FaultTransport
	bounds []float64     // fault-plan window edges, ascending
	clk    clock.Clock   // the network's: times a replayed lookup
	boot   time.Duration // clk's reading at boot

	// replayed and schedT (float64 bits) are the schedule clock: Replay
	// advances it to each event's instant, so windowed fault clauses fire
	// in schedule time exactly as they do in simulated time.
	replayed atomic.Bool
	schedT   atomic.Uint64
}

// planNow is the fault plan's clock: schedule time once a Replay has set
// it, and the network's seconds since boot before that.
func (c *Cluster) planNow() float64 {
	if c.replayed.Load() {
		return math.Float64frombits(c.schedT.Load())
	}
	return (c.clk.Now() - c.boot).Seconds()
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
	c.boot = c.clk.Now()

	if cfg.Fault != "" {
		plan, err := fault.Parse(cfg.Fault)
		if err != nil {
			c.closeTransports(transports)
			return nil, fmt.Errorf("cluster: %w", err)
		}
		addrToID := make(map[string]uint64, n)
		for i, a := range c.addrs {
			addrToID[a] = uint64(i)
		}
		c.faults = make([]*node.FaultTransport, n)
		for i := 0; i < n; i++ {
			ft, err := node.WrapFault(transports[i], node.FaultConfig{
				Plan:    plan,
				Seed:    cfg.Seed,
				Horizon: cfg.FaultHorizon,
				Self:    uint64(i),
				IDOf:    func(addr string) (uint64, bool) { id, ok := addrToID[addr]; return id, ok },
				Now:     c.planNow,
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
			Deadline:    cfg.Deadline,
			Replicas:    cfg.Replicas,
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

// Report is a replay's verdicts, one per scheduled lookup: the live side
// of the per-lookup comparison with eventsim's traces.
type Report struct {
	// Outcomes has one entry per scheduled lookup.
	Outcomes []Outcome
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
// The report's outcomes are index-aligned with the schedule's lookups,
// so each compares directly with eventsim's trace of the same lookup
// under the same Config — which is precisely what the conformance suite
// does. During a "sim" Replay the fault-plan clock reads each lookup's
// scheduled instant for the lookup's whole flight, the instant eventsim
// keys the lookup's fault coins and stalls by.
//
// When the schedule's Params carry Replicas k > 1, each lookup freezes
// the live subset of its key's k-owner replica set at issue time — the
// live analogue of the engine's start-time eligibility mask — and fails
// over across it in placement order, folding every attempt's route cost
// into the one Outcome, exactly as the engine folds prior hops into a
// replicated lookup's total.
func (c *Cluster) Replay(sched *eventsim.Schedule) (*Report, error) {
	if sched.Nodes != len(c.nodes) {
		return nil, fmt.Errorf("cluster: schedule population %d != cluster population %d", sched.Nodes, len(c.nodes))
	}
	repl, k, err := replica.Table(c.proto, c.proto.Space(), sched.Params.Replicas)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
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

	report := &Report{Outcomes: make([]Outcome, len(sched.Lookups))}
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
	sem := make(chan struct{}, replayConcurrency)
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
		c.schedT.Store(math.Float64bits(ev.t))
		c.replayed.Store(true)

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
