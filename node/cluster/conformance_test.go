package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rcm/eventsim"
)

// conformanceConfig is the shared eventsim configuration of the live
// conformance suite: a 2^bits-node massfail run whose post-failure window
// [2, 4] is the steady state both executors are compared over. The
// overlay seed is pinned explicitly so the simulator and the live cluster
// construct the *same* routing tables — agreement is then structural
// (identical first-alive-candidate walks), not statistical.
func conformanceConfig(protocol string, bits int, q float64, seed uint64) eventsim.Config {
	return eventsim.Config{
		Protocol: protocol,
		Overlay:  eventsim.OverlayConfig{Bits: bits, Seed: seed},
		Scenario: "massfail",
		Params:   eventsim.Params{FailFraction: q, FailTime: 1, Rate: 200},
		Duration: 4,
		Seed:     seed,
		// Lossless transports never benefit from same-candidate
		// retransmission, so disable it on both sides: dead-candidate
		// failover then costs one RTO instead of three without changing
		// any outcome.
		Retransmits: -1,
	}
}

// liveCluster boots the matching live cluster for a conformance config,
// on virtual time.
func liveCluster(t *testing.T, cfg eventsim.Config) *Cluster {
	t.Helper()
	return bootCluster(t, cfg, "sim", 15*time.Millisecond)
}

// bootCluster boots cfg's live cluster on the given transport and RTO.
func bootCluster(t *testing.T, cfg eventsim.Config, transport string, rto time.Duration) *Cluster {
	t.Helper()
	c, err := New(Config{
		Protocol:    cfg.Protocol,
		Bits:        cfg.Overlay.Bits,
		Seed:        cfg.Overlay.Seed,
		Transport:   transport,
		RTO:         rto,
		Retransmits: -1,
		Deadline:    3 * time.Second,
		Replicas:    cfg.Params.Replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestConformanceLiveVsEventsim is the acceptance gate of the live-node
// layer: replay the massfail schedule on a 128-node in-process cluster
// for chord, kademlia, singlehop and 3-replicated chord at q = 0 and
// q = 0.2, and require the live steady-state lookup success within
// ±0.05 and the live mean hop count within ±0.5 of eventsim's
// prediction for the identical configuration. Both executors walk the
// same Forwarder candidate lists over the same overlay tables against
// the same failed set — and, replicated, the same frozen owner masks in
// the same placement order — so the comparison pins the whole live
// stack — wire protocol, RTO machinery, candidate failover, replica
// failover, kill semantics — to the simulator's routing discipline. The
// cluster runs on virtual time ("sim"), so a timeout costs no wall clock
// and cannot fire spuriously.
func TestConformanceLiveVsEventsim(t *testing.T) {
	const (
		bits = 7 // 128 nodes
		seed = 11
	)
	cells := []struct {
		protocol string
		replicas int
	}{
		{"chord", 0},
		{"kademlia", 0},
		{"singlehop", 0},
		{"chord", 3},
	}
	for _, cell := range cells {
		for _, q := range []float64{0, 0.2} {
			cfg := conformanceConfig(cell.protocol, bits, q, seed)
			cfg.Params.Replicas = cell.replicas
			name := fmt.Sprintf("%s/k=%d q=%v", cell.protocol, cell.replicas, q)
			checkConformance(t, name, cfg, liveCluster(t, cfg))
		}
	}
}

// TestConformanceWallClock keeps one cell per protocol on the wall clock
// ("mem"), so the runtime timer that wakes a node's loop — the path a
// "sim" cluster replaces with virtual time — stays held to eventsim. The
// RTO is generous because a timeout that fires spuriously on a loaded
// host changes a hop count; a genuine failover pays it in wall time.
func TestConformanceWallClock(t *testing.T) {
	for _, protocol := range []string{"chord", "kademlia", "singlehop"} {
		cfg := conformanceConfig(protocol, 7, 0.2, 11)
		checkConformance(t, protocol+" q=0.2 on mem", cfg, bootCluster(t, cfg, "mem", 100*time.Millisecond))
	}
}

// checkConformance replays cfg's schedule on c and holds the report to
// eventsim's run of cfg over the steady-state window [2, Duration].
func checkConformance(t *testing.T, name string, cfg eventsim.Config, c *Cluster) {
	t.Helper()
	res, err := eventsim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: eventsim: %v", name, err)
	}
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatalf("%s: BuildSchedule: %v", name, err)
	}
	report, err := c.Replay(sched)
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}

	// Steady state: well after the t = 1 failure.
	simSucc := res.WindowSuccess(2, cfg.Duration)
	liveSucc := report.WindowSuccess(2, cfg.Duration)
	if math.IsNaN(simSucc) || math.IsNaN(liveSucc) {
		t.Fatalf("%s: empty window (sim %v, live %v)", name, simSucc, liveSucc)
	}
	if d := math.Abs(simSucc - liveSucc); d > 0.05 {
		t.Errorf("%s: live success %.4f vs eventsim %.4f (|Δ| = %.4f > 0.05)",
			name, liveSucc, simSucc, d)
	}

	simHops := windowMeanHops(res, 2, cfg.Duration)
	liveHops := report.WindowMeanHops(2, cfg.Duration)
	if d := math.Abs(simHops - liveHops); d > 0.5 {
		t.Errorf("%s: live mean hops %.3f vs eventsim %.3f (|Δ| = %.3f > 0.5)",
			name, liveHops, simHops, d)
	}

	// The strongest pin: the steady-state hop *distributions* are
	// identical histogram values, bucket for bucket — not just close in
	// the mean. Both sides walk the same candidate lists over the same
	// seed-pinned tables against the same failed set, observe integer hop
	// counts into the same obs bucket layout, and the window cohort
	// (lookups scheduled in [2, 4]) is closed well after the t = 1
	// failure, so any inequality here is a routing divergence, not noise.
	simDist := res.WindowHopDist(2, cfg.Duration)
	liveDist := report.WindowHopDist(2, cfg.Duration)
	if simDist != liveDist {
		t.Errorf("%s: live hop distribution diverges from eventsim:\nlive: %s\nsim:  %s",
			name, liveDist.String(), simDist.String())
	}
	if simDist.Count() == 0 {
		t.Errorf("%s: empty steady-state hop distribution", name)
	}

	// Live latency runs on the network's clock, not eventsim's transport
	// model, so only sanity is pinned: one observation per issued (not
	// skipped) window lookup, and a positive tail.
	liveLat := report.WindowLatency(2, cfg.Duration)
	if liveLat.Count() < liveDist.Count() {
		t.Errorf("%s: latency histogram n=%d below completed n=%d",
			name, liveLat.Count(), liveDist.Count())
	}
	if liveLat.Count() > 0 && liveLat.Max() <= 0 {
		t.Errorf("%s: non-positive live latency tail", name)
	}

	// q = 0 is an identity, not an approximation: nothing failed, so
	// every lookup must succeed on both substrates.
	if cfg.Params.FailFraction == 0 && (liveSucc != 1 || simSucc != 1) {
		t.Errorf("%s: success live %.4f, sim %.4f (want exactly 1)", name, liveSucc, simSucc)
	}
	t.Logf("%s: success live %.4f sim %.4f; hops live %.3f sim %.3f",
		name, liveSucc, simSucc, liveHops, simHops)
}

// windowMeanHops mirrors Report.WindowMeanHops for an eventsim result:
// mean hop count over buckets fully inside [from, to].
func windowMeanHops(r *eventsim.Result, from, to float64) float64 {
	sum, completed := 0.0, 0
	for _, b := range r.Buckets {
		if b.Start >= from && b.End <= to {
			sum += b.SumHops
			completed += b.Completed
		}
	}
	if completed == 0 {
		return math.NaN()
	}
	return sum / float64(completed)
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
	c := liveCluster(t, cfg)
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

// TestReplayRestartWindowNoDoubleCount pins the report's windows on a
// kill-then-restart schedule with replication: during the outage,
// replicated lookups to dead roots fail over — the live replay re-issues
// the request toward the next owner — and those re-issued attempts must
// fold into their one scheduled lookup's Outcome, never inflate the
// window histograms. The pin is eventsim equality: the outage and
// post-restart windows' hop distributions match the simulator bucket for
// bucket, and the latency histogram holds exactly one observation per
// issued lookup.
func TestReplayRestartWindowNoDoubleCount(t *testing.T) {
	err := eventsim.RegisterScenario("test-kill-revive", func(p eventsim.Params) (eventsim.Scenario, error) {
		return progScenario{name: "test-kill-revive", prog: func(env *eventsim.Env) error {
			n := env.Nodes()
			for i := 0; i < n/4; i++ {
				env.FailAt(1, i)
				env.JoinAt(3, i)
			}
			// Guard gaps around each toggle instant keep every lookup's
			// flight inside one population regime: the live replay drains
			// in-flight lookups before applying a toggle, the simulator
			// does not, and lookups crossing a toggle are the one place
			// the two executors may legitimately diverge. Timeout chains
			// cost one RTO per dead candidate, so the run uses a fast
			// transport (tight RTO) and a wide gap before the revival.
			rate := env.Params().Rate
			env.PoissonLookups(0, 0.9, rate, nil)
			env.PoissonLookups(1.1, 1.5, rate, nil)
			env.PoissonLookups(3.1, env.Duration(), rate, nil)
			return nil
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: 6, Seed: 9},
		Scenario: "test-kill-revive",
		Params:   eventsim.Params{Rate: 200, Replicas: 3},
		Duration: 4,
		// Unit-width buckets align the simulator's windows with the
		// report's scheduled-time windows below.
		Buckets:     4,
		Seed:        9,
		Transport:   eventsim.Constant{Latency: 0.01},
		Retransmits: -1,
	}
	res, err := eventsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := liveCluster(t, cfg)
	report, err := c.Replay(sched)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range [][2]float64{{1, 2}, {3, 4}} {
		simDist := res.WindowHopDist(w[0], w[1])
		liveDist := report.WindowHopDist(w[0], w[1])
		if simDist != liveDist {
			t.Errorf("window [%v, %v]: live hop distribution diverges from eventsim:\nlive: %s\nsim:  %s",
				w[0], w[1], liveDist.String(), simDist.String())
		}
		if simDist.Count() == 0 {
			t.Errorf("window [%v, %v]: empty hop distribution", w[0], w[1])
		}
		issued := 0
		for _, o := range report.Outcomes {
			if !o.Skipped && o.T >= w[0] && o.T <= w[1] {
				issued++
			}
		}
		if liveLat := report.WindowLatency(w[0], w[1]); liveLat.Count() != uint64(issued) {
			t.Errorf("window [%v, %v]: latency histogram n=%d != issued lookups %d (re-issued attempts double-counted?)",
				w[0], w[1], liveLat.Count(), issued)
		}
	}
}

// TestReplayRejectsMismatchedPopulation: a schedule built for a different
// population is refused, not misapplied.
func TestReplayRejectsMismatchedPopulation(t *testing.T) {
	cfg := conformanceConfig("chord", 4, 0, 1)
	sched, err := eventsim.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := liveCluster(t, conformanceConfig("chord", 3, 0, 1))
	if _, err := small.Replay(sched); err == nil {
		t.Error("mismatched population accepted")
	}
}
