package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rcm/eventsim"
	"rcm/fault"
	"rcm/overlay"
)

// The conformance suite holds the live node to eventsim per lookup: an
// eventsim run with every lookup traced and a live replay of the very
// schedule must agree, lookup for lookup, on whether it was skipped,
// whether it reached its owner and in how many hops, and, cell for cell,
// on the faults injected. Both executors walk the same Forwarder
// candidate lists over the same seed-pinned tables against the same
// failed set, fail over across the same frozen owner sets in the same
// placement order, and flip the same fault coins (fault.Injector.Coins),
// so any inequality is a divergence, not noise.

// conformanceScenario is the schedule the grid replays: the q·N failed
// nodes (Params.FailFraction) are offline from the start — no toggle, so
// the population never changes under a lookup — and uniform Poisson
// lookups run in [0, 0.4], [2, 2.4] and [5, 6]. The gaps before the plan
// edges at t = 2 and t = 5 (gridPlans) are long enough for every route,
// timeouts and replica failovers included, to conclude inside one fault
// regime: a k = 3 failover chain at q = 0.5 under a delay spike takes
// up to 2.3 s. checkLookups asserts that they were.
const conformanceScenario = "test-conformance"

func init() {
	for name, prog := range map[string]func(env *eventsim.Env){
		conformanceScenario: func(env *eventsim.Env) {
			n, rng := env.Nodes(), env.RNG()
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			for i := 0; i < int(env.Params().FailFraction*float64(n)); i++ {
				j := i + rng.Intn(n-i)
				ids[i], ids[j] = ids[j], ids[i]
				env.SetOffline(ids[i])
			}
			rate := env.Params().Rate
			env.PoissonLookups(0, 0.4, rate, nil)
			env.PoissonLookups(2, 2.4, rate, nil)
			env.PoissonLookups(5, env.Duration(), rate, nil)
		},
		// A quarter of the population fails at t = 1 and returns at t = 3;
		// lookups keep guard gaps around both toggles.
		killReviveScenario: func(env *eventsim.Env) {
			for i := 0; i < env.Nodes()/4; i++ {
				env.FailAt(1, i)
				env.JoinAt(3, i)
			}
			rate := env.Params().Rate
			env.PoissonLookups(0, 0.9, rate, nil)
			env.PoissonLookups(1.1, 1.5, rate, nil)
			env.PoissonLookups(3.1, env.Duration(), rate, nil)
		},
	} {
		err := eventsim.RegisterScenario(name, func(eventsim.Params) (eventsim.Scenario, error) {
			return progScenario{name: name, prog: func(env *eventsim.Env) error { prog(env); return nil }}, nil
		})
		if err != nil {
			panic(err)
		}
	}
}

const killReviveScenario = "test-kill-revive"

// gridPlans are the fault plans of the grid: none, every clause on its
// own, and every clause but the delay spike together, so the order of
// fault.Counts' tally rule is checked where clauses meet. (A delay spike
// on top would stretch the longest routes across the plan edges.) The
// windowed clauses open at t = 2 and close at t = 5.
var gridPlans = []string{"", "partition:2@2-5", "delayspike:3@2-5", "stall:0.2:1", "dup:0.2", "reorder:0.3", "corrupt:0.1",
	"partition:2@2-5,dup:0.2,reorder:0.3,corrupt:0.1,stall:0.2:1"}

// cell is one conformance configuration.
type cell struct {
	protocol    string
	bits        int
	q           float64
	replicas    int
	plan        string // fault plan; "" for none
	retransmits int    // same-candidate retransmissions on both sides (-1: none)
}

func (c cell) name() string {
	plan := c.plan
	if plan == "" {
		plan = "noplan"
	}
	return fmt.Sprintf("%s/2^%d/q=%v/k=%d/%s/retx=%d", c.protocol, c.bits, c.q, c.replicas, plan, c.retransmits)
}

// config is the cell's eventsim run: the conformance scenario over a
// constant 10 ms transport, fault-wrapped when the cell has a plan, with
// every lookup traced. The overlay and the run share one seed, which is
// also the live cluster's: the tables and the plan's choices match.
func (c cell) config(t *testing.T) eventsim.Config {
	t.Helper()
	const seed = 11
	spec := "constant:0.01"
	if c.plan != "" {
		spec = "fault:" + c.plan + "/" + spec
	}
	tr, err := eventsim.ParseTransport(spec)
	if err != nil {
		t.Fatal(err)
	}
	return eventsim.Config{
		Protocol:    c.protocol,
		Overlay:     eventsim.OverlayConfig{Bits: c.bits, Seed: seed},
		Scenario:    conformanceScenario,
		Params:      eventsim.Params{FailFraction: c.q, Rate: 200, Replicas: c.replicas},
		Duration:    6,
		Seed:        seed,
		Transport:   tr,
		Retransmits: c.retransmits,
		Trace:       1,
	}
}

// bootCluster boots cfg's live cluster, running plan, on the given
// transport and RTO. On "sim" the RTO is virtual time: 15 ms is above the
// longest live round trip (two 1 ms deliveries plus the fault wrapper's
// hold-back, at most 6 ms under delayspike:3 with a reorder), so no
// timeout fires spuriously.
func bootCluster(t *testing.T, cfg eventsim.Config, plan, transport string, rto time.Duration) *Cluster {
	t.Helper()
	c, err := New(Config{
		Protocol:     cfg.Protocol,
		Bits:         cfg.Overlay.Bits,
		Seed:         cfg.Seed,
		Transport:    transport,
		RTO:          rto,
		Retransmits:  cfg.Retransmits,
		Deadline:     3 * time.Second,
		Replicas:     cfg.Params.Replicas,
		Fault:        plan,
		FaultHorizon: cfg.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// verdict is what the suite compares per lookup.
type verdict struct {
	skipped, ok bool
	hops        int
}

// checkLookups runs cfg (which must trace every lookup) in eventsim,
// replays its schedule on c, requires equal verdicts for every lookup and
// equal fault tallies, and returns the eventsim result. It first asserts the suite's
// precondition rather than assuming it: no traced route spans a regime
// change — a fault-plan edge or a lifecycle toggle, across which the
// simulator's clock moves on mid-route while the live replay holds a
// lookup to one regime — and no live lookup expired.
func checkLookups(t *testing.T, cfg eventsim.Config, c *Cluster) *eventsim.Result {
	t.Helper()
	res, err := eventsim.Run(cfg)
	if err != nil {
		t.Fatalf("eventsim: %v", err)
	}
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	report, err := c.Replay(sched)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}

	edges := append([]float64(nil), c.bounds...)
	for _, tg := range sched.Toggles {
		edges = append(edges, tg.T)
	}
	for _, tr := range res.Traces {
		from, to := tr.Events[0].T, tr.Events[len(tr.Events)-1].T
		for _, e := range edges {
			if from < e && to >= e {
				t.Fatalf("precondition: lookup %d's route runs from %v to %v, across the regime change at %v", tr.Lookup, from, to, e)
			}
		}
	}
	if m := c.Metrics(); m.Expired != 0 {
		t.Fatalf("precondition: %d live lookups expired", m.Expired)
	}

	if len(res.Traces) != len(report.Outcomes) {
		t.Fatalf("eventsim traced %d lookups, the replay reports %d", len(res.Traces), len(report.Outcomes))
	}
	diverged := 0
	for i, tr := range res.Traces {
		if tr.Lookup != i {
			t.Fatalf("trace %d is of lookup %d", i, tr.Lookup)
		}
		var sim verdict
		for _, ev := range tr.Events {
			switch ev.Kind {
			case eventsim.TraceSkip, eventsim.TraceDone, eventsim.TraceFail:
				sim = verdict{skipped: ev.Kind == eventsim.TraceSkip, ok: ev.Kind == eventsim.TraceDone, hops: ev.Hops}
			}
		}
		o := report.Outcomes[i]
		if live := (verdict{o.Skipped, o.OK, o.Hops}); live != sim {
			if diverged < 5 {
				t.Errorf("lookup %d at t=%v: live %+v, eventsim %+v", i, o.T, live, sim)
			}
			diverged++
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d lookups diverge", diverged, len(report.Outcomes))
	}
	if live := c.FaultCounts(); live != res.Faults {
		t.Errorf("fault tallies: live %s, eventsim %s", live, res.Faults)
	}
	return res
}

// TestConformanceLiveVsEventsim is the acceptance gate of the live-node
// layer and of fault injection, and `make chaos-smoke` runs it under the
// race detector. The grid: the six built-in forwarders × q ∈ {0, 0.2,
// 0.5} × k ∈ {1, 3} × every plan of gridPlans at 2^7 nodes; one
// fault-free cell per forwarder at 2^12; and one corrupt cell that
// retransmits on both sides, so the coins' try key is exercised. Every
// live cluster runs on virtual time ("sim"), so a timeout costs no wall
// clock and cannot fire spuriously.
func TestConformanceLiveVsEventsim(t *testing.T) {
	protocols := []string{"chord", "can", "kademlia", "plaxton", "symphony", "singlehop"}
	var cells []cell
	for _, p := range protocols {
		for _, q := range []float64{0, 0.2, 0.5} {
			for _, k := range []int{1, 3} {
				for _, plan := range gridPlans {
					cells = append(cells, cell{p, 7, q, k, plan, -1})
				}
			}
		}
	}
	for _, p := range protocols {
		cells = append(cells, cell{p, 12, 0.2, 1, "", -1})
	}
	cells = append(cells, cell{"chord", 7, 0.2, 1, "corrupt:0.1", 2})

	for _, cl := range cells {
		t.Run(cl.name(), func(t *testing.T) {
			t.Parallel() // cells share nothing: each boots its own network
			cfg := cl.config(t)
			c := bootCluster(t, cfg, cl.plan, "sim", 15*time.Millisecond)
			checkLookups(t, cfg, c)
			// A clause that never fired proves nothing; a delay spike
			// leaves no tally.
			if cl.plan != "" && cl.plan != gridPlans[2] && c.FaultCounts() == (fault.Counts{}) {
				t.Errorf("plan %s injected nothing", cl.plan)
			}
		})
	}
}

// TestConformanceWallClock keeps one cell per protocol on the wall clock
// ("mem"), so the runtime timer that wakes a node's loop — the path a
// "sim" cluster replaces with virtual time — stays held to eventsim per
// lookup. The RTO is generous because a timeout that fires spuriously on
// a loaded host changes a hop count; a genuine failover pays it in wall
// time.
func TestConformanceWallClock(t *testing.T) {
	for _, protocol := range []string{"chord", "kademlia", "singlehop"} {
		t.Run(protocol, func(t *testing.T) {
			cfg := cell{protocol, 7, 0.2, 1, "", -1}.config(t)
			checkLookups(t, cfg, bootCluster(t, cfg, "", "mem", 100*time.Millisecond))
		})
	}
}

// TestReplayChurn exercises the Restart path: a small churn schedule with
// nodes cycling off and on replays without deadlock, and the report's
// cohorts are complete (every scheduled lookup is accounted skipped,
// succeeded or failed).
func TestReplayChurn(t *testing.T) {
	cfg := eventsim.Config{
		Protocol:    "chord",
		Overlay:     eventsim.OverlayConfig{Bits: 4, Seed: 3},
		Scenario:    "churn",
		Params:      eventsim.Params{Rate: 60, MeanOnline: 2, MeanOffline: 0.5},
		Duration:    3,
		Seed:        3,
		Retransmits: -1,
	}
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, cfg, "", "sim", 15*time.Millisecond)
	report, err := c.Replay(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != len(sched.Lookups) {
		t.Fatalf("report covers %d of %d lookups", len(report.Outcomes), len(sched.Lookups))
	}
	issued, ok := 0, 0
	for _, o := range report.Outcomes {
		if o.Skipped {
			continue
		}
		issued++
		if o.OK {
			ok++
		}
	}
	if issued == 0 {
		t.Fatal("churn replay issued no lookups")
	}
	// Chord under mild churn with static tables still routes most pairs.
	if frac := float64(ok) / float64(issued); frac < 0.5 {
		t.Errorf("churn replay success %.3f (%d/%d) below sanity floor 0.5", frac, ok, issued)
	}
}

// progScenario adapts a closure to eventsim.Scenario for tests.
type progScenario struct {
	name string
	prog func(*eventsim.Env) error
}

func (s progScenario) Name() string                    { return s.name }
func (s progScenario) Program(env *eventsim.Env) error { return s.prog(env) }

// TestReplayRestartWindowNoDoubleCount pins replication across a kill
// and a restart: during the outage, replicated lookups to dead roots
// fail over — the live replay re-issues the request toward the next
// owner — and those re-issued attempts must fold into their one
// scheduled lookup's Outcome. The pin is eventsim equality per lookup,
// over a schedule whose guard gaps keep every route inside one
// population regime (checkLookups asserts it).
func TestReplayRestartWindowNoDoubleCount(t *testing.T) {
	cfg := eventsim.Config{
		Protocol:    "chord",
		Overlay:     eventsim.OverlayConfig{Bits: 6, Seed: 9},
		Scenario:    killReviveScenario,
		Params:      eventsim.Params{Rate: 200, Replicas: 3},
		Duration:    4,
		Seed:        9,
		Transport:   eventsim.Constant{Latency: 0.01},
		Retransmits: -1,
		Trace:       1,
	}
	res := checkLookups(t, cfg, bootCluster(t, cfg, "", "sim", 15*time.Millisecond))
	failedOver := 0
	for _, tr := range res.Traces {
		for _, ev := range tr.Events {
			if ev.Kind == eventsim.TraceRetry {
				failedOver++
				break
			}
		}
	}
	if failedOver == 0 {
		t.Error("no lookup failed over to another owner: the outage did not bite")
	}
}

// TestReplayRejectsMismatchedPopulation: a schedule built for a different
// population is refused, not misapplied.
func TestReplayRejectsMismatchedPopulation(t *testing.T) {
	cfg := cell{"chord", 4, 0, 1, "", -1}.config(t)
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := bootCluster(t, cell{"chord", 3, 0, 1, "", -1}.config(t), "", "sim", 15*time.Millisecond)
	if _, err := small.Replay(sched); err == nil {
		t.Error("mismatched population accepted")
	}
}

// TestSimReplayDeterministic: on virtual time a replay is a function of
// its schedule. One fault plan replayed twice against fresh 128-node
// kademlia clusters gives reflect.DeepEqual Reports, latencies included,
// and equal fault and message counts — while the plan demonstrably
// partitions, duplicates and reorders, and failovers make latencies
// differ from lookup to lookup.
func TestSimReplayDeterministic(t *testing.T) {
	const plan = "partition:2@2-5,dup:0.3,reorder:0.3"
	cfg := cell{"kademlia", 7, 0, 1, plan, -1}.config(t)
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		report *Report
		faults fault.Counts
		msgs   uint64
	}
	replay := func() run {
		c := bootCluster(t, cfg, plan, "sim", 15*time.Millisecond)
		report, err := c.Replay(sched)
		if err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		return run{report, c.FaultCounts(), m.ReqsOut + m.AcksOut + m.RespsOut}
	}
	a, b := replay(), replay()
	if a.faults.PartitionDrops == 0 || a.faults.Dups == 0 || a.faults.Reorders == 0 {
		t.Fatalf("plan did not bite: %s", a.faults)
	}
	latencies := map[time.Duration]bool{}
	for _, o := range a.report.Outcomes {
		if !o.Skipped {
			latencies[o.Latency] = true
		}
	}
	if len(latencies) < 2 {
		t.Fatalf("%d distinct latencies: the replay did not exercise timeouts", len(latencies))
	}
	if a.faults != b.faults || a.msgs != b.msgs {
		t.Errorf("runs differ: faults %s vs %s, messages %d vs %d", a.faults, b.faults, a.msgs, b.msgs)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		for i := range a.report.Outcomes {
			if x, y := a.report.Outcomes[i], b.report.Outcomes[i]; x != y {
				t.Fatalf("reports differ, first at lookup %d: %+v vs %+v", i, x, y)
			}
		}
		t.Fatal("reports differ")
	}
}

// TestPlanClockBeforeReplay: a cluster no Replay has driven runs its
// fault plan on the network's seconds since boot. A partition whose
// window opens after boot lets a cross-group lookup through before its
// edge and blackholes it once the network has passed the edge; a plan
// clock pinned at schedule time 0 would let both through.
func TestPlanClockBeforeReplay(t *testing.T) {
	const (
		plan = "partition:2@0.5-3600"
		edge = 0.5
		seed = 5
	)
	c, err := New(Config{
		Protocol: "chord", Bits: 4, Seed: seed, Transport: "mem", Fault: plan,
		RTO: 20 * time.Millisecond, Retransmits: -1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	pl, err := fault.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	inj := pl.Bind(seed, 3600) // the wrappers' default horizon
	dst := 1
	for dst < c.Len() && !inj.CrossPartition(0, uint64(dst), edge) {
		dst++
	}
	if dst == c.Len() {
		t.Fatal("the cut put every node in node 0's group")
	}

	if r := c.Node(0).Lookup(overlay.ID(dst)); !r.OK() {
		t.Fatalf("lookup 0→%d before the edge: %+v, want delivered", dst, r)
	}
	if now := c.planNow(); now >= edge {
		t.Fatalf("boot and one lookup took %.3f s of network time, past the edge at %v s", now, edge)
	}
	time.Sleep(time.Duration((edge + 0.1) * float64(time.Second)))
	if r := c.Node(0).Lookup(overlay.ID(dst)); r.OK() {
		t.Fatalf("lookup 0→%d after the edge delivered: the plan clock did not follow network time", dst)
	}
	if c.FaultCounts().PartitionDrops == 0 {
		t.Error("the partition dropped nothing")
	}
}
