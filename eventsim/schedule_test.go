package eventsim

import (
	"math"
	"reflect"
	"testing"
)

func scheduleConfig(scenario string, seed uint64) Config {
	return Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 6},
		Scenario: scenario,
		Params:   Params{Rate: 200, FailFraction: 0.2, FailTime: 1},
		Duration: 4,
		Seed:     seed,
	}
}

// TestBuildScheduleDeterministic: the schedule is a pure function of the
// config — identical across calls, different under a different seed.
func TestBuildScheduleDeterministic(t *testing.T) {
	a, err := BuildSchedule(scheduleConfig("massfail", 7))
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	b, err := BuildSchedule(scheduleConfig("massfail", 7))
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same config produced different schedules")
	}
	c, err := BuildSchedule(scheduleConfig("massfail", 8))
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if reflect.DeepEqual(a.Lookups, c.Lookups) {
		t.Error("different seeds produced identical lookup schedules")
	}
}

// TestBuildScheduleMatchesRun: the schedule IS what Run executes — the
// run's scheduled-lookup count equals the schedule's, and the outcome
// partition (started + skipped) covers exactly that cohort. This holds
// because both paths share one scenario-programming helper; the test guards
// against the two ever diverging.
func TestBuildScheduleMatchesRun(t *testing.T) {
	for _, scenario := range []string{"massfail", "churn", "flashcrowd"} {
		cfg := scheduleConfig(scenario, 11)
		sched, err := BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s: BuildSchedule: %v", scenario, err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", scenario, err)
		}
		if res.Lookups != len(sched.Lookups) {
			t.Errorf("%s: Run scheduled %d lookups, BuildSchedule %d", scenario, res.Lookups, len(sched.Lookups))
		}
		tot := res.Totals()
		if tot.Started+tot.Skipped != len(sched.Lookups) {
			t.Errorf("%s: started %d + skipped %d != scheduled %d", scenario, tot.Started, tot.Skipped, len(sched.Lookups))
		}
		if sched.Nodes != res.Nodes {
			t.Errorf("%s: schedule population %d != run population %d", scenario, sched.Nodes, res.Nodes)
		}
		// The engine skips a lookup when src or dst is offline at start;
		// OfflineAt is the instantaneous state while the engine checks dst
		// against the per-epoch alive snapshot, so toggles landing within one
		// lookahead epoch (MinLatency) of a lookup start can be judged
		// differently. The prediction must agree up to that churn-rate ×
		// epoch-width slack.
		skipped := 0
		for _, lk := range sched.Lookups {
			if sched.OfflineAt(lk.Src, lk.T) || sched.OfflineAt(lk.Dst, lk.T) {
				skipped++
			}
		}
		slack := 2 + len(sched.Toggles)/50
		if diff := skipped - tot.Skipped; diff < -slack || diff > slack {
			t.Errorf("%s: OfflineAt predicts %d skips, engine skipped %d (slack %d)", scenario, skipped, tot.Skipped, slack)
		}
	}
}

// TestBuildScheduleMassfailShape: the massfail schedule has the documented
// structure — roughly FailFraction·N down-toggles (per-node Bernoulli, so
// binomially distributed) all at FailTime, no joins, every event inside
// the horizon.
func TestBuildScheduleMassfailShape(t *testing.T) {
	cfg := scheduleConfig("massfail", 3)
	sched, err := BuildSchedule(cfg)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	mean := cfg.Params.FailFraction * float64(sched.Nodes)
	tol := 4 * math.Sqrt(mean*(1-cfg.Params.FailFraction))
	downs := 0
	for _, tg := range sched.Toggles {
		if tg.Up {
			t.Errorf("massfail scheduled a join at t=%v node %d", tg.T, tg.Node)
		}
		if tg.T != cfg.Params.FailTime {
			t.Errorf("toggle at t=%v, want FailTime %v", tg.T, cfg.Params.FailTime)
		}
		downs++
	}
	if d := math.Abs(float64(downs) - mean); d > tol {
		t.Errorf("massfail killed %d nodes, want %v ± %v", downs, mean, tol)
	}
	for _, lk := range sched.Lookups {
		if lk.T < 0 || lk.T > sched.Duration {
			t.Errorf("lookup at t=%v outside [0,%v]", lk.T, sched.Duration)
		}
		if lk.Src == lk.Dst {
			t.Errorf("lookup with src == dst == %d", lk.Src)
		}
	}
	if len(sched.Lookups) == 0 {
		t.Error("massfail scheduled no lookups")
	}
}

// TestBuildScheduleAllocs: PoissonLookups reserves its expected count up
// front, so a Poisson workload of ≈ 20,000 lookups fills one allocation
// of the lookup slice instead of growing it append by append (6
// allocations in all, against 28 when every lookup was appended to an
// unreserved slice). The churn and massfail programs reserve their
// toggles the same way — the expected count plus four standard
// deviations — so ≈ 6,500 churn toggles or ≈ 1,200 failures add one
// allocation each, not one per doubling, and ChurnNode boxes no
// lifetime distribution per node (8 and 7 allocations, against 2,071 and
// 18 before).
func TestBuildScheduleAllocs(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want float64
	}{
		{Config{Scenario: "faultstorm", Params: Params{Rate: 5000}, Overlay: OverlayConfig{Bits: 8}}, 8},
		{Config{Scenario: "churn", Params: Params{Rate: 5000}, Overlay: OverlayConfig{Bits: 10}}, 8},
		{Config{Scenario: "massfail", Params: Params{Rate: 5000, FailFraction: 0.3}, Overlay: OverlayConfig{Bits: 12}}, 8},
	} {
		cfg := c.cfg
		cfg.Protocol, cfg.Duration = "chord", 4
		var lookups, toggles int
		allocs := testing.AllocsPerRun(5, func() {
			s, err := BuildSchedule(cfg)
			if err != nil {
				t.Fatalf("BuildSchedule: %v", err)
			}
			lookups, toggles = len(s.Lookups), len(s.Toggles)
		})
		if allocs > c.want {
			t.Errorf("%s: BuildSchedule of %d lookups and %d toggles made %.0f allocations, want ≤ %.0f", cfg.Scenario, lookups, toggles, allocs, c.want)
		}
	}
}
