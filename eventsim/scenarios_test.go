package eventsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"rcm/eventsim/lifetime"
	"rcm/overlay"
)

// TestParseTransportErrorTable is the table-driven error-path suite for
// ParseTransport: every rejected spelling must fail with a descriptive,
// package-prefixed message, never a zero-value transport.
func TestParseTransportErrorTable(t *testing.T) {
	cases := map[string]struct {
		spec    string
		wantSub string
	}{
		"unknown name":       {"warp", "unknown transport"},
		"junk constant":      {"constant:x", "constant latency"},
		"negative constant":  {"constant:-0.1", "must be >= 0"},
		"junk empirical":     {"empirical:x", "empirical median"},
		"negative empirical": {"empirical:-1", "empirical median"},
		"loss rate high":     {"lossy:2", "out of [0,1]"},
		"loss rate negative": {"lossy:-0.1", "out of [0,1]"},
		"junk loss rate":     {"lossy:x", "loss rate"},
		"nested lossy":       {"lossy:0.1:lossy:0.1", "cannot nest"},
		"bad lossy inner":    {"lossy:0.1:warp", "unknown transport"},
		"fault empty plan":   {"fault:", "needs a plan"},
		"fault bad clause":   {"fault:warp:1", "unknown clause"},
		"fault bad inner":    {"fault:dup:0.1/warp", "unknown transport"},
		"nested fault":       {"fault:dup:0.1/fault:dup:0.1/constant", "cannot nest another fault"},
		"lossy over fault":   {"lossy:0.1:fault:dup:0.1/constant", "must be outermost"},
	}
	for name, tc := range cases {
		tr, err := ParseTransport(tc.spec)
		if err == nil {
			t.Errorf("%s: ParseTransport(%q) accepted (-> %v)", name, tc.spec, tr)
			continue
		}
		if !strings.Contains(err.Error(), "eventsim:") {
			t.Errorf("%s: error %q lacks package context", name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

// TestParseLifetimeErrorTable is the matching suite for ParseLifetime:
// non-positive shapes, Pareto alpha <= 1 (infinite mean) and malformed
// trace specs must return descriptive errors instead of producing
// degenerate schedules.
func TestParseLifetimeErrorTable(t *testing.T) {
	cases := map[string]struct {
		spec    string
		wantSub string
	}{
		"unknown family":      {"cauchy", "unknown family"},
		"exp with arg":        {"exp:2", "takes no argument"},
		"pareto alpha 1":      {"pareto:1", "infinite mean"},
		"pareto alpha 0.5":    {"pareto:0.5", "infinite mean"},
		"pareto junk":         {"pareto:x", "argument"},
		"weibull negative":    {"weibull:-1", "must be positive"},
		"lognormal zero":      {"lognormal:-2", "must be positive"},
		"trace no path":       {"trace", "file path"},
		"trace missing":       {"trace:/no/such/file", "no/such/file"},
		"argument familyless": {":1.5", "no family name"},
	}
	for name, tc := range cases {
		fam, err := ParseLifetime(tc.spec)
		if err == nil {
			t.Errorf("%s: ParseLifetime(%q) accepted (-> %v)", name, tc.spec, fam)
			continue
		}
		if !strings.Contains(err.Error(), "lifetime:") {
			t.Errorf("%s: error %q lacks package context", name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

// TestParamsLifetimeValidation: every Params domain — the lifetime-model
// fields and the older knobs alike — is validated up front: Run must
// refuse the configuration before any scheduling, with an error that names
// the offending knob.
func TestParamsLifetimeValidation(t *testing.T) {
	ok := Config{Protocol: "chord", Overlay: OverlayConfig{Bits: 6}, Scenario: "heavytail"}
	for name, tc := range map[string]struct {
		mutate  func(*Params)
		wantSub string
	}{
		"unknown lifetime":     {func(p *Params) { p.Lifetime = "cauchy" }, "unknown family"},
		"infinite-mean pareto": {func(p *Params) { p.Lifetime = "pareto:0.9" }, "Lifetime"},
		"unknown downtime":     {func(p *Params) { p.Downtime = "nope" }, "Downtime"},
		"amplitude 1":          {func(p *Params) { p.DiurnalAmplitude = 1 }, "DiurnalAmplitude = 1 out of [0,1)"},
		"amplitude negative":   {func(p *Params) { p.DiurnalAmplitude = -0.2 }, "DiurnalAmplitude"},
		"amplitude NaN":        {func(p *Params) { p.DiurnalAmplitude = math.NaN() }, "DiurnalAmplitude"},
		"period negative":      {func(p *Params) { p.DiurnalPeriod = -1 }, "DiurnalPeriod"},
		"period Inf":           {func(p *Params) { p.DiurnalPeriod = math.Inf(1) }, "DiurnalPeriod"},
		"negative rate":        {func(p *Params) { p.Rate = -1 }, "Rate = -1"},
		"fail fraction":        {func(p *Params) { p.FailFraction = 1.5 }, "FailFraction = 1.5 out of [0,1]"},
		"hot above one":        {func(p *Params) { p.Hot = 2 }, "Hot = 2 out of [0,1]"},
		"negative region":      {func(p *Params) { p.Regions = -2 }, "Regions = -2"},
	} {
		cfg := ok
		tc.mutate(&cfg.Params)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
		for what, err := range map[string]error{"Config": cfg.Validate(), "Params": cfg.Params.Validate()} {
			if err == nil {
				t.Errorf("%s: %s.Validate accepted", name, what)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("%s: %s.Validate error %q does not mention %q", name, what, err, tc.wantSub)
			}
		}
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("valid heavytail config rejected: %v", err)
	}
}

// TestHotValidation: the Hot knob's domain is [0,1] — the table pins the
// boundary, interior, and every rejection class (negative, above one, NaN)
// with the descriptive error text.
func TestHotValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		hot  float64
		ok   bool
	}{
		{"zero selects default", 0, true},
		{"interior", 0.5, true},
		{"lower boundary epsilon", 1e-9, true},
		{"upper boundary", 1, true},
		{"negative", -0.1, false},
		{"above one", 1.1, false},
		{"far out", 80, false},
		{"NaN", math.NaN(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{Hot: tc.hot}
			err := p.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("Validate(Hot=%v) = %v, want nil", tc.hot, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(Hot=%v) accepted", tc.hot)
			}
			if !strings.Contains(err.Error(), "Hot") || !strings.Contains(err.Error(), "out of [0,1]") {
				t.Errorf("Validate(Hot=%v) error %q not descriptive", tc.hot, err)
			}
		})
	}
}

// TestScenarioFactoryErrors: factory-level rejections for the lifetime
// scenarios — the degenerate configurations must never reach scheduling.
func TestScenarioFactoryErrors(t *testing.T) {
	base := Config{Protocol: "chord", Overlay: OverlayConfig{Bits: 6}, Duration: 2}
	for name, cfg := range map[string]Config{
		"tracechurn without trace": func() Config {
			c := base
			c.Scenario = "tracechurn"
			return c
		}(),
		"heavytail infinite mean": func() Config {
			c := base
			c.Scenario = "heavytail"
			c.Params.Lifetime = "pareto:1"
			return c
		}(),
		"diurnal unknown downtime": func() Config {
			c := base
			c.Scenario = "diurnal"
			c.Params.Downtime = "warp"
			return c
		}(),
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHeavytailScenarioRuns: the heavytail scenario produces a live churn
// schedule whose realized availability sits in the right neighborhood of
// 1 − q_eff, and completes lookups.
func TestHeavytailScenarioRuns(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "heavytail",
		Params:   Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 800},
		Duration: 6,
		Seed:     3,
	})
	total := res.Totals()
	if total.Started == 0 || total.Completed == 0 {
		t.Fatalf("heavytail run started %d completed %d lookups", total.Started, total.Completed)
	}
	last := res.Buckets[len(res.Buckets)-1].OnlineFraction
	if last < 0.55 || last > 0.95 {
		t.Errorf("heavytail online fraction %v implausible for q_eff=0.2", last)
	}
}

// TestDiurnalOscillation: with a strong amplitude and a period shorter
// than the run, the online fraction must visibly oscillate across
// buckets — the population swing the scenario exists to model.
func TestDiurnalOscillation(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 9},
		Scenario: "diurnal",
		Params: Params{
			MeanOnline: 0.8, MeanOffline: 0.4, Rate: 500,
			DiurnalPeriod: 4, DiurnalAmplitude: 0.85,
		},
		Duration: 8,
		Buckets:  16,
		Seed:     2,
	})
	min, max := 1.0, 0.0
	for _, b := range res.Buckets[2:] {
		if b.OnlineFraction < min {
			min = b.OnlineFraction
		}
		if b.OnlineFraction > max {
			max = b.OnlineFraction
		}
	}
	if max-min < 0.08 {
		t.Errorf("diurnal online fraction barely moved: min %.4f max %.4f", min, max)
	}
}

// TestTracechurnReplays: a run driven by a trace file completes and its
// online fraction tracks the q_eff implied by the requested means (the
// trace is rescaled to MeanOnline).
func TestTracechurnReplays(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "kademlia",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "tracechurn",
		Params: Params{
			MeanOnline: 1, MeanOffline: 0.25, Rate: 500,
			Lifetime: "trace:" + testTracePath(t),
		},
		Duration: 6,
		Seed:     4,
	})
	if res.Totals().Completed == 0 {
		t.Fatal("tracechurn completed no lookups")
	}
	last := res.Buckets[len(res.Buckets)-1].OnlineFraction
	if last < 0.5 || last > 0.95 {
		t.Errorf("tracechurn online fraction %v implausible for q_eff=0.2", last)
	}
}

// TestDiurnalQEffExceedsUnmodulated: the diurnal q_eff is the period
// average of the instantaneous offline fraction, which by Jensen exceeds
// the unmodulated ratio — returning E[off]/(E[on]+E[off]) would bias the
// static-model comparison columns for diurnal runs.
func TestDiurnalQEffExceedsUnmodulated(t *testing.T) {
	p := Params{MeanOnline: 1, MeanOffline: 0.25, DiurnalAmplitude: 0.6}
	flat := p.EffectiveOffline("churn", 10)
	diurnal := p.EffectiveOffline("diurnal", 10)
	if flat != 0.2 {
		t.Fatalf("churn q_eff = %v, want 0.2", flat)
	}
	if !(diurnal > flat+0.01) || diurnal > 0.5 {
		t.Errorf("diurnal q_eff = %v, want measurably above the unmodulated %v (Jensen)", diurnal, flat)
	}
	// A small amplitude converges back to the unmodulated ratio.
	p.DiurnalAmplitude = 0.01
	if nearly := p.EffectiveOffline("diurnal", 10); math.Abs(nearly-flat) > 0.001 {
		t.Errorf("near-zero amplitude diurnal q_eff = %v, want ≈ %v", nearly, flat)
	}
}

// TestEffectiveOfflineResolvesAliases: every registered alias must yield
// the same q_eff as its canonical scenario — an alias silently mapping to
// the zero default would put the static comparison columns at the wrong q.
func TestEffectiveOfflineResolvesAliases(t *testing.T) {
	p := Params{MeanOnline: 1, MeanOffline: 0.25, FailFraction: 0.3}
	for alias, canonical := range map[string]string{
		"fail":         "massfail",
		"regions":      "correlated",
		"pareto-churn": "heavytail",
		"daily":        "diurnal",
		"trace-replay": "tracechurn",
		" CHURN ":      "churn",
	} {
		if got, want := p.EffectiveOffline(alias, 10), p.EffectiveOffline(canonical, 10); got != want {
			t.Errorf("q_eff(%q) = %v, want %v (= q_eff(%q))", alias, got, want, canonical)
		}
	}
	if got := p.EffectiveOffline("churn", 10); got != 0.2 {
		t.Errorf("q_eff(churn) = %v, want 0.2", got)
	}
}

// stuckFamily is a deliberately misbehaving lifetime implementation whose
// samples are zero — the guard in churnSchedule must turn it into a
// descriptive error in every churn-family scenario (a missing guard
// would hang the diurnal scheduling loop forever).
type stuckFamily struct{}

func (stuckFamily) Name() string                        { return "stuck" }
func (stuckFamily) Dist(mean float64) (Lifetime, error) { return stuckDist{}, nil }

type stuckDist struct{}

func (stuckDist) Name() string                    { return "stuck" }
func (stuckDist) Mean() float64                   { return 1 }
func (stuckDist) Sample(rng *overlay.RNG) float64 { return 0 }

func TestNonPositiveSamplesFailAllChurnScenarios(t *testing.T) {
	if err := lifetime.Register("stuck-test", func(string) (LifetimeFamily, error) {
		return stuckFamily{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []string{"heavytail", "diurnal", "tracechurn"} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(Config{
				Protocol: "chord",
				Overlay:  OverlayConfig{Bits: 6},
				Scenario: scenario,
				Params:   Params{Lifetime: "stuck-test", Rate: 50},
				Duration: 2,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: zero-duration samples accepted", scenario)
			} else if !strings.Contains(err.Error(), "non-positive duration") {
				t.Errorf("%s: error %q does not name the non-positive duration", scenario, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: run hung on zero-duration samples (missing churnSchedule guard)", scenario)
		}
	}
}
