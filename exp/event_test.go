package exp

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"rcm/eventsim"
	"rcm/fault"
)

// TestParseModeRoundTrip: ParseMode is the exact inverse of Mode.String
// over every valid flag combination, including the zero mode.
func TestParseModeRoundTrip(t *testing.T) {
	for m := Mode(0); m <= modeAll; m++ {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Errorf("ParseMode(%q): %v", m.String(), err)
			continue
		}
		if got != m {
			t.Errorf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	// Spelling robustness: case and spacing.
	if m, err := ParseMode(" Analytic + EVENT "); err != nil || m != ModeAnalytic|ModeEvent {
		t.Errorf("ParseMode with case/space noise = %v, %v", m, err)
	}
	// Aliases from the shared spec table resolve to their canonical flags.
	for alias, want := range map[string]Mode{
		"rcm":          ModeAnalytic,
		"static":       ModeSim,
		"eventsim":     ModeEvent,
		"rcm+static":   ModeAnalytic | ModeSim,
		"none+sim":     ModeSim,
		"sim+analytic": ModeAnalytic | ModeSim,
	} {
		if m, err := ParseMode(alias); err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", alias, m, err, want)
		}
	}
	for _, bad := range []string{"", "warp", "sim+warp", "sim++analytic", "sim:3", "sim+churn"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
	// Unknown flags name every accepted spelling.
	if _, err := ParseMode("warp"); err == nil || !strings.Contains(err.Error(), "analytic") || !strings.Contains(err.Error(), "eventsim") {
		t.Errorf("ParseMode(warp) error %v does not list accepted spellings", err)
	}
	// "churn" named the Monte-Carlo churn engine's mode; with the engine
	// gone it is an unknown name like any other, and the error points at
	// the three modes that exist.
	_, err := ParseMode("churn")
	if err == nil {
		t.Fatal(`ParseMode("churn") accepted`)
	}
	for _, want := range []string{`unknown mode flag "churn"`, "analytic", "sim", "event"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseMode(churn) error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "churn,") {
		t.Errorf("ParseMode(churn) error %q still lists churn as accepted", err)
	}
}

func eventPlan() Plan {
	return Plan{
		Name:  "eventtest",
		Specs: []Spec{MustSpec("chord")},
		Bits:  []int{8},
		Events: []eventsim.Config{{
			Scenario: "massfail",
			Params:   eventsim.Params{FailFraction: 0.3, FailTime: 1, Rate: 1000},
			Duration: 4,
			Buckets:  4,
		}},
	}
}

// TestEventMode runs an event plan through the public runner and checks
// the row shape: one row per bucket in time order, q = q_eff, static
// comparison columns filled when requested, and the post-fail success
// tracking the static measurement.
func TestEventMode(t *testing.T) {
	rows, err := Run(context.Background(), eventPlan(),
		WithModes(ModeEvent, ModeAnalytic, ModeSim),
		WithPairs(2000), WithTrials(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (one per bucket)", len(rows))
	}
	for i, r := range rows {
		if r.Kind != "event" || r.Scenario != "massfail" {
			t.Errorf("row %d identity: kind=%q scenario=%q", i, r.Kind, r.Scenario)
		}
		if r.Q != 0.3 {
			t.Errorf("row %d q = %v, want q_eff 0.3", i, r.Q)
		}
		if want := float64(i+1) * 1.0; r.Time != want {
			t.Errorf("row %d time = %v, want %v", i, r.Time, want)
		}
		if math.IsNaN(r.AnalyticRoutability) || math.IsNaN(r.SimRoutability) {
			t.Errorf("row %d: static comparison columns not filled", i)
		}
		if r.EventStarted == 0 || math.IsNaN(r.EventSuccess) {
			t.Errorf("row %d: no event measurements: %+v", i, r)
		}
		// Percentile columns: monotone, exact-hop p50 bracketing the
		// mean, latency percentiles in the same unit as the mean.
		if math.IsNaN(r.EventHopsP50) || r.EventHopsP50 > r.EventHopsP99 || r.EventHopsP99 > r.EventHopsP999 {
			t.Errorf("row %d: hop percentiles not monotone: %v/%v/%v", i, r.EventHopsP50, r.EventHopsP99, r.EventHopsP999)
		}
		if r.EventHopsP999 < r.EventMeanHops {
			t.Errorf("row %d: p999 hops %v below mean %v", i, r.EventHopsP999, r.EventMeanHops)
		}
		if math.IsNaN(r.EventLatencyP50) || r.EventLatencyP50 > r.EventLatencyP999 {
			t.Errorf("row %d: latency percentiles not monotone: %v/%v", i, r.EventLatencyP50, r.EventLatencyP999)
		}
		if r.EventLatencyP999 < r.EventMeanLatency*0.5 || r.EventLatencyP50 > r.EventMeanLatency*4 {
			t.Errorf("row %d: latency percentiles (%v..%v) inconsistent with mean %v", i, r.EventLatencyP50, r.EventLatencyP999, r.EventMeanLatency)
		}
	}
	// Bucket 0 ends exactly at the failure instant: lookups still in
	// flight when the failure hits are attributed to their start bucket
	// and legitimately die, so pre-fail success is high but not 1.
	if pre := rows[0].EventSuccess; pre < 0.9 {
		t.Errorf("pre-fail success %v, want ≥ 0.9", pre)
	}
	post := rows[3]
	if math.Abs(post.EventSuccess-post.SimRoutability) > 0.06 {
		t.Errorf("post-fail event success %.4f far from static routability %.4f",
			post.EventSuccess, post.SimRoutability)
	}
	if math.Abs(post.EventOnline-0.7) > 0.06 {
		t.Errorf("post-fail online %v, want ≈0.7", post.EventOnline)
	}
}

// TestEventModeDeterministicParallel: the event rows are identical no
// matter how many workers execute the plan.
func TestEventModeDeterministicParallel(t *testing.T) {
	plan := eventPlan()
	plan.Specs = []Spec{MustSpec("chord"), MustSpec("kademlia")}
	opts := func(workers int) []Option {
		return []Option{WithModes(ModeEvent), WithWorkers(workers), WithSeed(5)}
	}
	serial, err := Run(context.Background(), plan, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), plan, opts(8)...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("parallel event run differs from serial:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestEventPlanValidation: event mode demands settings, known scenarios,
// parseable transports and protocols on every spec.
func TestEventPlanValidation(t *testing.T) {
	base := eventPlan()
	if err := base.Validate(ModeEvent); err != nil {
		t.Fatalf("valid event plan rejected: %v", err)
	}

	noSettings := base
	noSettings.Events = nil
	if err := noSettings.Validate(ModeEvent); err == nil {
		t.Error("event mode without settings accepted")
	}

	badScenario := base
	badScenario.Events = []eventsim.Config{{Scenario: "nope"}}
	if err := badScenario.Validate(ModeEvent); err == nil {
		t.Error("unknown scenario accepted")
	}

	badTransport := base
	badTransport.Events = []eventsim.Config{{Scenario: "massfail", Transport: eventsim.Empirical{Median: -1}}}
	if err := badTransport.Validate(ModeEvent); err == nil {
		t.Error("out-of-domain transport accepted")
	}

	badFault := base
	badFault.Events = []eventsim.Config{{Scenario: "massfail", Fault: fault.Plan{Corrupt: 2}}}
	if err := badFault.Validate(ModeEvent); err == nil {
		t.Error("out-of-domain fault plan accepted")
	}

	badParams := base
	badParams.Events = []eventsim.Config{{Scenario: "massfail", Params: eventsim.Params{FailFraction: 2}}}
	if err := badParams.Validate(ModeEvent); err == nil {
		t.Error("out-of-domain params accepted")
	}
}

// TestEventCSVShape: the streaming CSV encoder renders event rows with
// the scenario and time columns populated and grid columns empty.
func TestEventCSVShape(t *testing.T) {
	var b bytes.Buffer
	err := StreamCSV(&b, Stream(context.Background(), eventPlan(), WithModes(ModeEvent), WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d CSV lines, want header + 4 rows:\n%s", len(lines), b.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("row width %d != header width %d", len(row), len(header))
	}
	byName := map[string]string{}
	for i, h := range header {
		byName[h] = row[i]
	}
	if byName["kind"] != "event" || byName["scenario"] != "massfail" {
		t.Errorf("identity cells: %v", byName)
	}
	if byName["time"] != "1" {
		t.Errorf("time cell %q, want 1", byName["time"])
	}
	if byName["analytic_routability"] != "" || byName["sim_routability"] != "" {
		t.Errorf("unmeasured cells not empty: %v", byName)
	}
	if byName["event_success"] == "" || byName["event_online"] == "" {
		t.Errorf("event cells empty: %v", byName)
	}
}
