package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rcm/eventsim"
	"rcm/fault"
	"rcm/overlay"
)

// registerGuardedLookups registers (once) the scenario the partition
// conformance cells replay: uniform Poisson lookups with guard gaps
// around the plan's window edges at t = 1 and t = 3, so no lookup's
// flight straddles a fault boundary — the one regime change where the
// simulator (whose clock advances during a route) and the live replay
// (whose plan clock is pinned to the lookup's scheduled instant) could
// legitimately diverge. Inside each regime both executors walk the same
// candidate lists against the same deterministic partition cut, so the
// hop distributions must match histogram for histogram.
func registerGuardedLookups(t *testing.T) {
	t.Helper()
	guardedOnce.Do(func() {
		guardedErr = eventsim.RegisterScenario("test-fault-guard", func(p eventsim.Params) (eventsim.Scenario, error) {
			return progScenario{name: "test-fault-guard", prog: func(env *eventsim.Env) error {
				rate := env.Params().Rate
				env.PoissonLookups(0, 0.8, rate, nil)
				env.PoissonLookups(1.2, 1.8, rate, nil)
				env.PoissonLookups(3.4, env.Duration(), rate, nil)
				return nil
			}}, nil
		})
	})
	if guardedErr != nil {
		t.Fatal(guardedErr)
	}
}

var (
	guardedOnce sync.Once
	guardedErr  error
)

// faultConformanceConfig is the shared eventsim configuration of the
// fault conformance cells: a 64-node run on the guarded-lookup schedule
// with the given fault-wrapped transport.
func faultConformanceConfig(protocol, transport, scenario string, seed uint64) (eventsim.Config, error) {
	tr, err := eventsim.ParseTransport(transport)
	if err != nil {
		return eventsim.Config{}, err
	}
	return eventsim.Config{
		Protocol:    protocol,
		Overlay:     eventsim.OverlayConfig{Bits: 6, Seed: seed},
		Scenario:    scenario,
		Params:      eventsim.Params{Rate: 200},
		Duration:    4,
		Buckets:     4, // unit buckets align the windows below
		Seed:        seed,
		Transport:   tr,
		Retransmits: -1,
	}, nil
}

// faultLiveCluster boots the live cluster matching a fault conformance
// config: same overlay seed, same fault plan bound to the same
// (simulation seed, duration), replayed against the cluster's plan
// clock, on virtual time.
func faultLiveCluster(t *testing.T, cfg eventsim.Config, plan string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Protocol:  cfg.Protocol,
		Bits:      cfg.Overlay.Bits,
		Seed:      cfg.Overlay.Seed,
		Transport: "sim",
		// Above the wrapper's hold-back (≤ 2 ms) plus the simulated round
		// trip: a timeout would re-flip clause coins on the
		// retransmission and desynchronize the outcome from the
		// simulator.
		RTO:          100 * time.Millisecond,
		Retransmits:  -1,
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

// TestFaultConformanceLiveVsEventsim is the fault-injection acceptance
// gate: for each (plan, protocol) cell, run eventsim over the
// fault-wrapped transport and replay the identical schedule against a
// live 64-node cluster whose transports run the identical plan, and
// require the per-window hop distributions to be *equal histogram
// values* — the same exactness the fault-free conformance suite pins.
//
//   - partition:2@1-3 changes behavior: cross-cut requests blackhole on
//     both substrates under the same deterministic cut, so mid-window
//     success drops identically and heals identically.
//   - dup:0.3,reorder:0.3 must NOT change behavior: duplicates are
//     absorbed by dedupe (engine: the dup event only charges a message;
//     live: the dedupe window re-acks) and reordered requests are merely
//     late, so the distributions match the fault-free run's — while the
//     injection counters prove the faults actually fired.
func TestFaultConformanceLiveVsEventsim(t *testing.T) {
	registerGuardedLookups(t)
	const seed = 17
	cells := []struct {
		protocol string
		plan     string
		scenario string
		behaves  bool // plan changes lookup outcomes
	}{
		{"chord", "partition:2@1-3", "test-fault-guard", true},
		{"kademlia", "partition:2@1-3", "test-fault-guard", true},
		{"chord", "dup:0.3,reorder:0.3", "faultstorm", false},
		{"kademlia", "dup:0.3,reorder:0.3", "faultstorm", false},
	}
	for _, cell := range cells {
		name := fmt.Sprintf("%s/%s", cell.protocol, cell.plan)
		cfg, err := faultConformanceConfig(cell.protocol, "fault:"+cell.plan+"/constant:0.01", cell.scenario, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eventsim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: eventsim: %v", name, err)
		}
		if res.Faults.Total() == 0 {
			t.Fatalf("%s: simulator injected no faults", name)
		}
		sched, err := eventsim.BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s: BuildSchedule: %v", name, err)
		}
		c := faultLiveCluster(t, cfg, cell.plan)
		report, err := c.Replay(sched)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if c.FaultCounts().Total() == 0 {
			t.Fatalf("%s: live wrappers injected no faults", name)
		}

		windows := [][2]float64{{0, 1}, {1, 2}, {3, 4}}
		for _, w := range windows {
			simDist := res.WindowHopDist(w[0], w[1])
			liveDist := report.WindowHopDist(w[0], w[1])
			if simDist != liveDist {
				t.Errorf("%s window [%v, %v]: live hop distribution diverges from eventsim:\nlive: %s\nsim:  %s",
					name, w[0], w[1], liveDist.String(), simDist.String())
			}
			if simDist.Count() == 0 {
				t.Errorf("%s window [%v, %v]: empty hop distribution", name, w[0], w[1])
			}
			simSucc := res.WindowSuccess(w[0], w[1])
			liveSucc := report.WindowSuccess(w[0], w[1])
			if simSucc != liveSucc {
				t.Errorf("%s window [%v, %v]: live success %.4f != eventsim %.4f",
					name, w[0], w[1], liveSucc, simSucc)
			}
		}

		// Outside any fault window (or under outcome-invariant plans)
		// nothing fails; during a partition the cut makes cross-group
		// destinations unreachable on both substrates.
		if s := res.WindowSuccess(0, 1); s != 1 {
			t.Errorf("%s: pre-window success %.4f, want 1", name, s)
		}
		if s := res.WindowSuccess(3, 4); s != 1 {
			t.Errorf("%s: post-heal success %.4f, want 1", name, s)
		}
		midSim, midLive := res.WindowSuccess(1, 2), report.WindowSuccess(1, 2)
		if cell.behaves {
			if midSim >= 1 {
				t.Errorf("%s: mid-partition sim success %.4f, want < 1", name, midSim)
			}
			if c.FaultCounts().PartitionDrops == 0 || res.Faults.PartitionDrops == 0 {
				t.Errorf("%s: no partition drops (live %d, sim %d)",
					name, c.FaultCounts().PartitionDrops, res.Faults.PartitionDrops)
			}
		} else {
			if midSim != 1 || midLive != 1 {
				t.Errorf("%s: outcome-invariant plan changed success (sim %.4f, live %.4f)", name, midSim, midLive)
			}
			lc := c.FaultCounts()
			if lc.Dups == 0 || lc.Reorders == 0 || res.Faults.Dups == 0 {
				t.Errorf("%s: dup/reorder never fired (live %s, sim %s)", name, lc, res.Faults)
			}
			if m := c.Metrics(); m.DupReqs == 0 {
				t.Errorf("%s: live dedupe window absorbed no duplicates", name)
			}
		}
		t.Logf("%s: mid-window success sim %.4f live %.4f; sim faults %s; live faults %s",
			name, midSim, midLive, res.Faults, c.FaultCounts())
	}
}

// TestChaosSmoke is the `make chaos-smoke` gate: a 64-node live cluster
// on virtual time replaying a uniform lookup schedule while every
// transport runs a partition-plus-duplication plan, under the race
// detector. The pin is recovery: lookups scheduled after the partition
// heals all succeed, and both fault kinds demonstrably fired.
func TestChaosSmoke(t *testing.T) {
	const plan = "partition:2@0.5-1.5,dup:0.2"
	cfg, err := faultConformanceConfig("chord", "fault:"+plan+"/constant:0.01", "faultstorm", 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 3
	cfg.Buckets = 3
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	c := faultLiveCluster(t, cfg, plan)
	report, err := c.Replay(sched)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	counts := c.FaultCounts()
	if counts.PartitionDrops == 0 || counts.Dups == 0 {
		t.Errorf("chaos plan never fired: %s", counts)
	}
	during := report.WindowSuccess(0.5, 1.4)
	if during >= 1 {
		t.Errorf("mid-partition success %.4f, want < 1 (did the partition bite?)", during)
	}
	// Recovery: every lookup scheduled at or after the heal succeeds.
	if healed := report.WindowSuccess(1.5, cfg.Duration); healed != 1 {
		t.Errorf("post-heal success %.4f, want 1", healed)
	}
	t.Logf("chaos smoke: %d lookups, mid-partition success %.4f, faults %s",
		len(report.Outcomes), during, counts)
}

// TestSimReplayDeterministic: on virtual time a replay is a function of
// its schedule. One fault plan replayed twice against fresh 128-node
// kademlia clusters gives reflect.DeepEqual Reports, latencies included,
// and equal fault and message counts — while the plan demonstrably
// partitions, duplicates and reorders, and failovers make latencies
// differ from lookup to lookup.
func TestSimReplayDeterministic(t *testing.T) {
	registerGuardedLookups(t)
	const plan = "partition:2@1-3,dup:0.3,reorder:0.3"
	cfg, err := faultConformanceConfig("kademlia", "fault:"+plan+"/constant:0.01", "test-fault-guard", 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlay.Bits = 7
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
		c := faultLiveCluster(t, cfg, plan)
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
