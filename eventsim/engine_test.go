package eventsim

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rcm/fault"
	"rcm/overlay"
)

func mustRun(t testing.TB, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testTracePath writes a small availability trace usable by the
// tracechurn scenario and the trace lifetime family in tests.
func testTracePath(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sessions.txt")
	if err := os.WriteFile(path, []byte("# test trace\n0.4\n0.9\n1.6\n3.1\n0.2\n1.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDeterministic locks the core reproducibility contract: identical
// (seed, shards) configurations produce bit-identical results regardless
// of host scheduling, for every built-in scenario.
func TestDeterministic(t *testing.T) {
	trace := testTracePath(t)
	for _, scenario := range ScenarioNames() {
		cfg := Config{
			Protocol: "chord",
			Overlay:  OverlayConfig{Bits: 8},
			Scenario: scenario,
			Params:   Params{FailFraction: 0.3, Rate: 500, ZipfS: 1.1},
			Duration: 4,
			Seed:     42,
			Maintain: true,
		}
		if scenario == "tracechurn" {
			cfg.Params.Lifetime = "trace:" + trace
		}
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical runs diverged:\n%+v\nvs\n%+v", scenario, a, b)
		}
	}
}

// TestShardCountIsSamplingPlan documents that the shard count changes RNG
// streams (like sim worker counts) but not the qualitative outcome: a
// lossless, churn-free run succeeds fully at any shard count, including
// the inline single-shard path.
func TestShardCountIsSamplingPlan(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		res := mustRun(t, Config{
			Protocol: "kademlia",
			Overlay:  OverlayConfig{Bits: 8},
			Scenario: "massfail",
			Params:   Params{FailFraction: 0, Rate: 400},
			Duration: 3,
			Shards:   shards,
		})
		if res.Shards != shards {
			t.Fatalf("shards = %d, want %d", res.Shards, shards)
		}
		total := res.Totals()
		if total.Started == 0 || total.Completed != total.Started {
			t.Errorf("shards=%d: %d/%d lookups completed, want all", shards, total.Completed, total.Started)
		}
	}
}

// TestMassfailDropsOnline checks the scenario/lifecycle plumbing: after
// the failure the online fraction matches 1−FailFraction, lookups from
// dead sources are skipped, and success drops below 1 while never dipping
// to the pre-fail buckets.
func TestMassfailDropsOnline(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 9},
		Scenario: "massfail",
		Params:   Params{FailFraction: 0.4, FailTime: 2, Rate: 2000},
		Duration: 8,
		Buckets:  8,
	})
	first, last := res.Buckets[0], res.Buckets[len(res.Buckets)-1]
	if first.OnlineFraction != 1 {
		t.Errorf("pre-fail online fraction %v, want 1", first.OnlineFraction)
	}
	if math.Abs(last.OnlineFraction-0.6) > 0.08 {
		t.Errorf("post-fail online fraction %v, want ≈0.6", last.OnlineFraction)
	}
	if s := first.Success(); s != 1 {
		t.Errorf("pre-fail success %v, want 1", s)
	}
	if s := last.Success(); !(s < 1) || math.IsNaN(s) {
		t.Errorf("post-fail success %v, want < 1", s)
	}
	if res.Totals().Skipped == 0 {
		t.Error("no skipped lookups despite 40% of sources being dead")
	}
	if res.Totals().Timeouts == 0 {
		t.Error("no timeouts despite dead next hops")
	}
}

// TestMaintenanceHealsChurn is the headline dynamic result the static
// layers cannot express: under churn, join+stabilize maintenance buys
// back a substantial fraction of failed lookups, at a measurable message
// cost.
func TestMaintenanceHealsChurn(t *testing.T) {
	base := Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 9},
		Scenario: "churn",
		Params:   Params{MeanOnline: 1, MeanOffline: 0.5, Rate: 2000},
		Duration: 8,
		Seed:     3,
	}
	static := mustRun(t, base)
	maintained := base
	maintained.Maintain = true
	maintained.StabilizeEvery = 0.25
	healed := mustRun(t, maintained)

	sStatic := static.WindowSuccess(2, 8)
	sHealed := healed.WindowSuccess(2, 8)
	if !(sHealed > sStatic+0.02) {
		t.Errorf("maintenance did not help: healed %.4f vs static %.4f", sHealed, sStatic)
	}
	if healed.Totals().MaintMessages == 0 {
		t.Error("maintained run reports zero maintenance messages")
	}
	if static.Totals().MaintMessages != 0 {
		t.Errorf("unmaintained run reports %d maintenance messages", static.Totals().MaintMessages)
	}
}

// TestLossyTransportRetries: per-hop retransmission absorbs moderate
// request loss (a corrupt plan) in a healthy overlay — success stays high
// — while timeouts and extra messages show up in the accounting.
func TestLossyTransportRetries(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "massfail",
		Params:   Params{FailFraction: 0, Rate: 500},
		Fault:    fault.Plan{Corrupt: 0.1},
		Duration: 4,
	})
	total := res.Totals()
	if total.Timeouts == 0 {
		t.Error("10% request loss produced no timeouts")
	}
	if res.Faults.Corrupts == 0 {
		t.Error("10% request loss counted no corrupts")
	}
	if s := res.WindowSuccess(0, 4); s < 0.97 {
		t.Errorf("success %.4f under 10%% loss, want ≥ 0.97 (retries should absorb it)", s)
	}
}

// TestFlashcrowdLoadSpike: the crowd window multiplies message volume
// without failing nodes.
func TestFlashcrowdLoadSpike(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "symphony",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "flashcrowd",
		Params:   Params{Rate: 200, CrowdStart: 2, CrowdDuration: 2, CrowdFactor: 8},
		Duration: 8,
		Buckets:  8,
	})
	quiet := res.Buckets[0].LookupMessages + res.Buckets[1].LookupMessages
	crowd := res.Buckets[2].LookupMessages + res.Buckets[3].LookupMessages
	if !(crowd > 3*quiet) {
		t.Errorf("crowd window messages %d not a spike over quiet %d", crowd, quiet)
	}
	if on := res.Buckets[7].OnlineFraction; on != 1 {
		t.Errorf("flashcrowd failed nodes: online fraction %v", on)
	}
}

// TestCorrelatedMilderThanIndependent locks in a finding only the event
// layer can produce: killing the same failure mass as contiguous
// identifier regions is *milder* for survivor-to-survivor routing than
// independent sampling — survivors keep most of their table entries (only
// those pointing into the dead regions are lost), and dead-region
// destinations are excluded by the surviving-pair conditioning, whereas
// independent failure degrades every node's table uniformly. The paper's
// independent-failure model is therefore conservative for spatially
// correlated outages. The gap is dramatic for geometries with structural
// neighbors (symphony near links, plaxton prefix levels) and present for
// all five; symphony and kademlia carry the assertion with wide margins.
func TestCorrelatedMilderThanIndependent(t *testing.T) {
	for _, proto := range []string{"symphony", "kademlia"} {
		shared := Params{FailFraction: 0.3, FailTime: 1, Rate: 3000, Regions: 2}
		base := Config{
			Protocol: proto,
			Overlay:  OverlayConfig{Bits: 9},
			Scenario: "correlated",
			Params:   shared,
			Duration: 6,
			Seed:     11,
		}
		corr := mustRun(t, base)
		indep := base
		indep.Scenario = "massfail"
		ind := mustRun(t, indep)

		sCorr := corr.WindowSuccess(2, 6)
		sInd := ind.WindowSuccess(2, 6)
		if !(sCorr > sInd+0.1) {
			t.Errorf("%s: correlated success %.4f not clearly milder than independent %.4f",
				proto, sCorr, sInd)
		}
		// The same failure mass went down either way.
		if on := corr.Buckets[len(corr.Buckets)-1].OnlineFraction; math.Abs(on-0.7) > 0.1 {
			t.Errorf("%s: correlated online fraction %v, want ≈0.7", proto, on)
		}
	}
}

// TestZipfSkew: the zipf scenario completes and remains fully successful
// in a healthy overlay — skew concentrates load, it must not lose lookups.
func TestZipfSkew(t *testing.T) {
	res := mustRun(t, Config{
		Protocol: "kademlia",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "zipf",
		Params:   Params{Rate: 500, ZipfS: 1.2},
		Duration: 4,
	})
	total := res.Totals()
	if total.Started == 0 || total.Completed != total.Started {
		t.Errorf("zipf run: %d/%d completed", total.Completed, total.Started)
	}
}

// TestZipfTargetsSkewed checks the sampler itself: under s = 1.2, the most
// popular target must receive far more than the uniform share.
func TestZipfTargetsSkewed(t *testing.T) {
	env := &Env{s: &Schedule{Nodes: 256, Duration: 1, InitialOffline: make([]bool, 256)}, rng: overlay.NewRNG(5)}
	sample := env.ZipfTargets(1.2)
	counts := make(map[int]int)
	rng := overlay.NewRNG(6)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[sample(rng)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := draws / 256; max < 10*uniform {
		t.Errorf("hottest target drawn %d times, want ≥ 10× the uniform share %d", max, uniform)
	}
	if env.ZipfTargets(0) != nil {
		t.Error("ZipfTargets(0) should be nil (uniform)")
	}
}

// TestConfigValidation covers the rejection paths.
func TestConfigValidation(t *testing.T) {
	ok := Config{Protocol: "chord", Overlay: OverlayConfig{Bits: 6}, Scenario: "massfail"}
	for name, mutate := range map[string]func(*Config){
		"unknown scenario":  func(c *Config) { c.Scenario = "nope" },
		"unknown protocol":  func(c *Config) { c.Protocol = "nope" },
		"rto overflows":     func(c *Config) { c.Transport = Constant{Latency: 1e308} },
		"negative fail":     func(c *Config) { c.Params.FailFraction = -1 },
		"fail above one":    func(c *Config) { c.Params.FailFraction = 1.5 },
		"nan rate":          func(c *Config) { c.Params.Rate = math.NaN() },
		"loss rate above 1": func(c *Config) { c.Fault = fault.Plan{Corrupt: 1.5} },
		"too many shards":   func(c *Config) { c.Shards = 1000 },
		"zero bits":         func(c *Config) { c.Overlay.Bits = 0 },
	} {
		cfg := ok
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestScenarioRegistry pins what is specific to this table — the built-in
// library leads ScenarioNames in its documented order and its aliases
// resolve; the naming rules themselves (collisions, folding, nil factories)
// are held for every table at once by the root TestRegistryContract.
func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	want := []string{"massfail", "churn", "flashcrowd", "correlated", "zipf"}
	for i, w := range want {
		if i >= len(names) || names[i] != w {
			t.Fatalf("ScenarioNames() = %v, want prefix %v", names, want)
		}
	}
	if _, ok := LookupScenario("  CROWD "); !ok {
		t.Error("alias lookup with case/space noise failed")
	}
}

// TestTransportParsing locks the CLI spellings.
func TestTransportParsing(t *testing.T) {
	for spec, want := range map[string]string{
		"constant":       "constant",
		"constant:0.1":   "constant",
		"empirical":      "empirical",
		"empirical:0.08": "empirical",
		"king":           "empirical",
	} {
		tr, err := ParseTransport(spec)
		if err != nil {
			t.Errorf("ParseTransport(%q): %v", spec, err)
			continue
		}
		if tr.Name() != want {
			t.Errorf("ParseTransport(%q).Name() = %q, want %q", spec, tr.Name(), want)
		}
		if !(tr.MinLatency() > 0) || !(tr.MaxLatency() >= tr.MinLatency()) {
			t.Errorf("ParseTransport(%q): bad latency bounds [%v, %v]", spec, tr.MinLatency(), tr.MaxLatency())
		}
	}
	for _, bad := range []string{"warp", "constant:x", "lossy:0.1", "fault:dup:0.1/constant", "empirical:-1"} {
		if _, err := ParseTransport(bad); err == nil {
			t.Errorf("ParseTransport(%q) accepted", bad)
		}
	}
}

// TestEmpiricalTransportBounds: samples stay inside the declared bounds
// and the median scaling lands where asked.
func TestEmpiricalTransportBounds(t *testing.T) {
	e := Empirical{Median: 0.08}
	rng := overlay.NewRNG(9)
	sum := 0.0
	const draws = 5000
	for i := 0; i < draws; i++ {
		lat := e.Sample(rng)
		if lat < e.MinLatency()-1e-12 || lat > e.MaxLatency()+1e-12 {
			t.Fatalf("sample %v outside [%v, %v]", lat, e.MinLatency(), e.MaxLatency())
		}
		sum += lat
	}
	if mean := sum / draws; mean < 0.05 || mean > 0.2 {
		t.Errorf("mean latency %v wildly off the 0.08 median profile", mean)
	}
}

// TestCustomScenarioEndToEnd registers the doc.go walkthrough scenario and
// runs it: healing must restore the online fraction and maintenance must
// spike in the heal bucket.
func TestCustomScenarioEndToEnd(t *testing.T) {
	err := RegisterScenario("test-blackout", func(p Params) (Scenario, error) {
		return scenarioFunc{name: "test-blackout", program: func(env *Env) error {
			n := env.Nodes()
			start := env.RNG().Intn(n)
			heal := (env.Params().FailTime + env.Duration()) / 2
			for i := 0; i < n/4; i++ {
				env.FailAt(env.Params().FailTime, (start+i)%n)
				env.JoinAt(heal, (start+i)%n)
			}
			env.PoissonLookups(0, env.Duration(), env.Params().Rate, nil)
			return nil
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 8},
		Scenario: "test-blackout",
		Params:   Params{FailTime: 2, Rate: 1000},
		Duration: 8,
		Buckets:  8,
		Maintain: true,
	})
	mid := res.Buckets[3].OnlineFraction
	end := res.Buckets[7].OnlineFraction
	if !(mid < 0.8) {
		t.Errorf("blackout did not take nodes down: online %v at t=3", mid)
	}
	if end != 1 {
		t.Errorf("blackout did not heal: online %v at t=7", end)
	}
	if res.Totals().MaintMessages == 0 {
		t.Error("healing joins produced no maintenance traffic")
	}
}

// scenarioFunc adapts a closure to Scenario for tests.
type scenarioFunc struct {
	name    string
	program func(*Env) error
}

func (s scenarioFunc) Name() string           { return s.name }
func (s scenarioFunc) Program(env *Env) error { return s.program(env) }

// TestAccAtMatchesBucketOf holds the per-epoch bucket cache to bucketOf at
// every time where the two could part: epochs that straddle a bucket edge
// or end exactly on one, times on an edge and on its float64 neighbours,
// times past the last bucket (the clamp), and an epoch an idle jump lands
// on. A run's events never fall on their epoch's end, so no pinned result
// checks these times.
func TestAccAtMatchesBucketOf(t *testing.T) {
	const buckets = 10
	e := &engine{cfg: Config{Buckets: buckets, Duration: 1}, width: 1.0 / buckets, delta: 0.03}
	sh := &shard{eng: e, acc: make([]bucketAcc, buckets)}
	// edge returns the least float64 bucketOf puts in bucket b, b ≥ 1.
	edge := func(b int32) float64 {
		x := float64(b) * e.width
		for e.bucketOf(x) >= b {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for e.bucketOf(x) < b {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	neighbours := func(x float64) []float64 {
		return []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
	}
	var edges, ends []float64
	for b := int32(1); b < buckets; b++ {
		x := edge(b)
		edges = append(edges, x)
		ends = append(ends, neighbours(x)...)       // the epoch ends on or beside the edge
		ends = append(ends, x+e.delta/2, x+e.delta) // it straddles the edge, or starts on it
	}
	// Epochs as the engine reaches them: by steps of one lookahead, past the
	// last bucket into the clamp, and by an idle jump to the lookahead
	// boundary below the next event, then one more step.
	for end := e.delta; end < 1.5; end += e.delta {
		ends = append(ends, end)
	}
	jump := e.delta * math.Floor(0.7071/e.delta)
	ends = append(ends, jump, jump+e.delta, 7.5)
	cached := 0
	for _, end := range ends {
		sh.setEpoch(end)
		if sh.accEnd > sh.accLo {
			cached++
		}
		probes := append(neighbours(end-e.delta), neighbours(end)...)
		probes = append(probes, end-e.delta/2, 2, 1e9)
		for _, x := range edges {
			probes = append(probes, neighbours(x)...)
		}
		for _, x := range probes {
			if sh.accAt(x) != &sh.acc[e.bucketOf(x)] {
				t.Fatalf("epoch ending %v: accAt(%v) is not bucket %d", end, x, e.bucketOf(x))
			}
		}
	}
	if cached == 0 || cached == len(ends) {
		t.Fatalf("%d of %d epochs cached their bucket: the test covers only one path", cached, len(ends))
	}
}
