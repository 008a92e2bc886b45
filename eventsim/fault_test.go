package eventsim

import (
	"reflect"
	"strings"
	"testing"

	"rcm/fault"
)

// faultCfg is the shared fault-test substrate: a stable population
// (faultstorm) over a constant transport, so every deviation from the
// lossless baseline is attributable to the plan under test.
func faultCfg(transport string) Config {
	tr, err := ParseTransport(transport)
	if err != nil {
		panic(err)
	}
	return Config{
		Protocol:  "chord",
		Overlay:   OverlayConfig{Bits: 8},
		Scenario:  "faultstorm",
		Params:    Params{Rate: 500},
		Transport: tr,
		Duration:  4,
		Seed:      42,
	}
}

// TestFaultDeterministic locks the tentpole reproducibility contract for
// fault injection: for a fixed (Seed, Shards), a full six-clause plan
// produces bit-identical Results across repeated runs and across both
// schedulers, with every clause's counter actually exercised.
func TestFaultDeterministic(t *testing.T) {
	const plan = "partition:2@1-2,delayspike:3@2-3,dup:0.2,reorder:0.2,corrupt:0.1,stall:0.1:0.3"
	for _, shards := range []int{1, 4} {
		cfg := faultCfg("fault:" + plan + "/constant")
		cfg.Shards = shards
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: two identical fault runs diverged", shards)
		}
		h := runHeap(t, cfg)
		if !reflect.DeepEqual(a, h) {
			t.Fatalf("shards=%d: heap scheduler diverged from wheel under faults", shards)
		}
		f := a.Faults
		if f.PartitionDrops == 0 || f.Dups == 0 || f.Reorders == 0 || f.Corrupts == 0 || f.StallDrops == 0 {
			t.Fatalf("shards=%d: some clause never fired: %s", shards, f.String())
		}
	}
}

// TestPartitionWindowRoutability: during the partition window success
// drops below 1 (cross-group requests blackhole), and it recovers to
// exactly 1 for lookups issued after the heal — the property figure E21
// plots against the static model's prediction.
func TestPartitionWindowRoutability(t *testing.T) {
	cfg := faultCfg("fault:partition:2@2-4/constant")
	cfg.Duration = 8
	cfg.Buckets = 8
	res := mustRun(t, cfg)
	if res.Faults.PartitionDrops == 0 {
		t.Fatal("partition window never dropped a request")
	}
	if s := res.WindowSuccess(0, 1); s != 1 {
		t.Errorf("pre-partition success %v, want exactly 1", s)
	}
	if s := res.WindowSuccess(2, 4); !(s < 1) {
		t.Errorf("in-window success %v, want < 1", s)
	}
	if s := res.WindowSuccess(5, 8); s != 1 {
		t.Errorf("post-heal success %v, want exactly 1 (no lingering state)", s)
	}
}

// TestDupReorderOutcomeInvariant: over a lossless inner transport,
// duplication and reordering change message counts and latencies but not
// outcomes — per-bucket Started/Completed/SumHops and the hop-count
// histograms equal the fault-free baseline exactly. This is the property
// that makes dup/reorder cells conformance-pinnable histogram for
// histogram against the live cluster.
func TestDupReorderOutcomeInvariant(t *testing.T) {
	base := mustRun(t, faultCfg("constant"))
	res := mustRun(t, faultCfg("fault:dup:0.3,reorder:0.3/constant"))
	if res.Faults.Dups == 0 || res.Faults.Reorders == 0 {
		t.Fatalf("plan never fired: %s", res.Faults.String())
	}
	for i := range base.Buckets {
		b, f := base.Buckets[i], res.Buckets[i]
		if b.Started != f.Started || b.Completed != f.Completed || b.SumHops != f.SumHops {
			t.Fatalf("bucket %d outcomes drifted under dup/reorder: baseline %+v vs fault %+v", i, b, f)
		}
		if res.HopDist[i] != base.HopDist[i] {
			t.Fatalf("bucket %d hop distribution drifted under dup/reorder", i)
		}
	}
	if tot := res.Totals(); tot.LookupMessages <= base.Totals().LookupMessages {
		t.Error("duplication did not increase message count")
	}
}

// TestCorruptAndStallRecoverable: corruption and stalls drop requests a
// retransmitting sender can route around — the counters fire, timeouts
// occur, and success stays high because retransmission and candidate
// failover absorb the damage.
func TestCorruptAndStallRecoverable(t *testing.T) {
	res := mustRun(t, faultCfg("fault:corrupt:0.1,stall:0.1:0.3/constant"))
	if res.Faults.Corrupts == 0 || res.Faults.StallDrops == 0 {
		t.Fatalf("plan never fired: %s", res.Faults.String())
	}
	tot := res.Totals()
	if tot.Timeouts == 0 {
		t.Error("corrupt/stall drops produced no retransmission timeouts")
	}
	if s := tot.Start; s != 0 {
		t.Fatalf("unexpected totals window start %v", s)
	}
	if s := res.WindowSuccess(0, res.Duration); !(s > 0.9) {
		t.Errorf("success %v under mild corrupt/stall, want > 0.9", s)
	}
}

// TestLossyTotalBlackhole (the lossy:1.0 edge case): with every request
// dropped, every started lookup fails — and the run still terminates with
// the pending-arena ownership intact (no panic, no double recycling).
func TestLossyTotalBlackhole(t *testing.T) {
	cfg := faultCfg("lossy:1.0")
	cfg.Overlay.Bits = 6
	cfg.Params.Rate = 100
	cfg.Duration = 2
	res := mustRun(t, cfg)
	tot := res.Totals()
	if tot.Started == 0 {
		t.Fatal("no lookups started")
	}
	if tot.Completed != 0 || tot.Failed != tot.Started {
		t.Errorf("blackhole run completed %d and failed %d of %d started; want 0 completed, all failed",
			tot.Completed, tot.Failed, tot.Started)
	}
	if tot.Timeouts == 0 {
		t.Error("blackhole run fired no timeouts")
	}
}

// TestFaultSpecRoundTrip (nested grammar): fault plans compose over lossy
// inner transports and round-trip through TransportSpec to a canonical
// fixed point, aliases and default inners included.
func TestFaultSpecRoundTrip(t *testing.T) {
	for in, canonical := range map[string]string{
		"fault:dup:0.1/lossy:0.3:empirical:0.08": "fault:dup:0.1/lossy:0.3:empirical:0.08",
		"FAULTS:part:2@1-2,dup:0.1":              "fault:partition:2@1-2,dup:0.1/constant:0.05",
		"fault:stall:0.1:0.5/constant:0.02":      "fault:stall:0.1:0.5/constant:0.02",
	} {
		tr, err := ParseTransport(in)
		if err != nil {
			t.Errorf("ParseTransport(%q): %v", in, err)
			continue
		}
		s := TransportSpec(tr)
		if s != canonical {
			t.Errorf("TransportSpec(ParseTransport(%q)) = %q, want %q", in, s, canonical)
		}
		again, err := ParseTransport(s)
		if err != nil {
			t.Errorf("ParseTransport(%q) (canonical respelling): %v", s, err)
			continue
		}
		if TransportSpec(again) != s {
			t.Errorf("canonical spelling not a fixed point: %q -> %q", s, TransportSpec(again))
		}
	}
}

// TestFaultPlanValidatedInConfig: a hand-built Faulty with a bad or empty
// plan is rejected by Config.Validate, not silently run.
func TestFaultPlanValidatedInConfig(t *testing.T) {
	for name, tr := range map[string]Transport{
		"empty plan": Faulty{},
		"bad plan":   Faulty{Plan: fault.Plan{Dup: 1.5}},
	} {
		cfg := faultCfg("constant")
		cfg.Transport = tr
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Config.Validate accepted", name)
		} else if !strings.Contains(err.Error(), "fault") {
			t.Errorf("%s: error %q does not mention the fault transport", name, err)
		}
	}
}

// TestAdaptiveRTOQuiescentIdentical: on a lossless, fault-free run no
// timeout ever fires, so the adaptive estimator — which only moves
// timeout deadlines — must leave the Result bit-identical to the fixed
// path.
func TestAdaptiveRTOQuiescentIdentical(t *testing.T) {
	off := faultCfg("constant")
	on := off
	on.AdaptiveRTO = true
	a, b := mustRun(t, off), mustRun(t, on)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("AdaptiveRTO changed a quiescent run's Result")
	}
}

// TestAdaptiveRTODeterministicUnderFaults: the estimator path is as
// reproducible as the fixed one — bit-identical repeated runs and
// wheel/heap agreement under an empirical transport with stalls (real
// RTT variance, real timeouts, real backoff).
func TestAdaptiveRTODeterministicUnderFaults(t *testing.T) {
	cfg := faultCfg("fault:stall:0.15:0.4/empirical:0.05")
	cfg.AdaptiveRTO = true
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical adaptive-RTO runs diverged")
	}
	h := runHeap(t, cfg)
	if !reflect.DeepEqual(a, h) {
		t.Fatal("heap scheduler diverged from wheel with AdaptiveRTO on")
	}
	if a.Faults.StallDrops == 0 || a.Totals().Timeouts == 0 {
		t.Fatalf("stall plan never exercised the estimator: %s, %d timeouts", a.Faults.String(), a.Totals().Timeouts)
	}
	if s := a.WindowSuccess(0, a.Duration); !(s > 0.8) {
		t.Errorf("adaptive-RTO success %v under stalls, want > 0.8", s)
	}
}
