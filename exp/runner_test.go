package exp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"rcm/eventsim"
	"rcm/internal/core"
	"rcm/internal/sim"
)

// testPlan is a small but full-featured plan: every mode, two system
// sizes; testOpts pins the sample sizes and the seed its output is a
// function of.
func testPlan() Plan {
	return Plan{
		Name:  "test",
		Specs: AllSpecs(),
		Bits:  []int{8, 9},
		Qs:    []float64{0, 0.2, 0.5},
		Events: []eventsim.Config{
			{Scenario: "churn", Params: eventsim.Params{Rate: 200}, Duration: 2, Buckets: 2},
			{Scenario: "churn", Params: eventsim.Params{Rate: 200}, Duration: 2, Buckets: 2, Maintain: true},
		},
	}
}

func testOpts(extra ...Option) []Option {
	base := []Option{
		WithModes(ModeAnalytic, ModeSim, ModeEvent),
		WithPairs(500), WithTrials(2),
		WithSeed(1),
	}
	return append(base, extra...)
}

// TestParallelMatchesSerial is the determinism contract: a parallel run
// must produce byte-identical encoded output to a serial (one-worker) run.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	plan := testPlan()
	serial, err := Run(ctx, plan, testOpts(WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ctx, plan, testOpts(WithWorkers(8))...)
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	if err := WriteCSV(&bs, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&bp, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Errorf("parallel CSV differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", bs.String(), bp.String())
	}
}

// TestMemoMatchesDirect checks the memoized analytic path is bit-identical
// to the direct (WithoutMemo) path over the same plan.
func TestMemoMatchesDirect(t *testing.T) {
	ctx := context.Background()
	plan := testPlan()
	memo, err := Run(ctx, plan, WithModes(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(ctx, plan, WithModes(ModeAnalytic), WithoutMemo())
	if err != nil {
		t.Fatal(err)
	}
	if len(memo) != len(direct) {
		t.Fatalf("row counts differ: %d vs %d", len(memo), len(direct))
	}
	for i := range memo {
		if memo[i].AnalyticRoutability != direct[i].AnalyticRoutability ||
			memo[i].AnalyticFailedPct != direct[i].AnalyticFailedPct ||
			memo[i].AnalyticReach != direct[i].AnalyticReach {
			t.Errorf("row %d: memo %+v != direct %+v", i, memo[i], direct[i])
		}
	}
}

// TestGridRows sanity-checks grid row content against direct evaluation.
func TestGridRows(t *testing.T) {
	ctx := context.Background()
	plan := Plan{
		Name:  "grid",
		Specs: []Spec{MustSpec("kademlia")},
		Bits:  []int{10},
		Qs:    []float64{0, 0.3},
	}
	rows, err := Run(ctx, plan,
		WithModes(ModeAnalytic, ModeSim),
		WithPairs(1000), WithTrials(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	r0 := rows[0]
	if r0.Kind != "grid" || r0.Geometry != "xor" || r0.System != "Kademlia" || r0.Protocol != "kademlia" {
		t.Errorf("row identity: %+v", r0)
	}
	if r0.Q != 0 || r0.AnalyticRoutability != 1 || r0.SimRoutability != 1 {
		t.Errorf("q=0 row should be perfectly routable: %+v", r0)
	}
	want, err := core.Routability(core.XOR{}, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].AnalyticRoutability != want {
		t.Errorf("analytic r = %v, want %v", rows[1].AnalyticRoutability, want)
	}
	if rows[1].SimRoutability <= 0 || rows[1].SimRoutability >= 1 {
		t.Errorf("sim r at q=0.3 = %v, want in (0,1)", rows[1].SimRoutability)
	}
	if rows[1].SimPairs != 2000 || rows[1].SimTrials != 2 {
		t.Errorf("sim tallies: pairs=%d trials=%d", rows[1].SimPairs, rows[1].SimTrials)
	}
	if !math.IsNaN(rows[1].EventSuccess) {
		t.Errorf("grid row has event measurement: %v", rows[1].EventSuccess)
	}
}

// TestGridMatchesSweep checks the runner reproduces sim.Sweep's historical
// seed schedule exactly, so cmd/dhtsim output is unchanged.
func TestGridMatchesSweep(t *testing.T) {
	ctx := context.Background()
	qs := []float64{0, 0.25, 0.5}
	plan := Plan{
		Name:  "sweep-parity",
		Specs: []Spec{MustSpec("chord")},
		Bits:  []int{9},
		Qs:    qs,
	}
	rows, err := Run(ctx, plan,
		WithModes(ModeSim), WithPairs(800), WithTrials(2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := build(overlayKey{protocol: "chord", cfg: Config{Bits: 9, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Sweep(p, qs, sim.Options{Pairs: 800, Trials: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].SimRoutability != want[i].Routability {
			t.Errorf("q=%v: runner %v != sim.Sweep %v", qs[i], rows[i].SimRoutability, want[i].Routability)
		}
	}
}

// TestRunnerErrors checks invalid plans and failing cells surface errors.
func TestRunnerErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	// Overlay construction fails: bits beyond dht.MaxSimBits.
	plan := Plan{
		Specs: []Spec{MustSpec("chord")},
		Bits:  []int{30},
		Qs:    []float64{0.1},
	}
	if _, err := Run(ctx, plan, WithModes(ModeSim), WithPairs(10), WithTrials(1)); err == nil {
		t.Error("bits=30 sim plan accepted")
	}
	// Analytic-only is fine at large d.
	if _, err := Run(ctx, plan, WithModes(ModeAnalytic)); err != nil {
		t.Errorf("analytic d=30: %v", err)
	}
}

// TestOnceMapComputesOncePerKey: however many goroutines ask for one key
// at once, compute runs once and every asker sees its value and error.
func TestOnceMapComputesOncePerKey(t *testing.T) {
	var om onceMap[string, int]
	var calls atomic.Int32
	boom := errors.New("boom")
	const askers = 16
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := om.get("k", func() (int, error) {
				calls.Add(1)
				return 42, boom
			})
			if v != 42 || err != boom {
				t.Errorf("get = (%d, %v), want (42, boom)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	if v, err := om.get("other", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("second key = (%d, %v), want (7, nil)", v, err)
	}
}
