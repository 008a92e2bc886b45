package eventsim

import (
	"reflect"
	"runtime"
	"testing"

	"rcm/fault"
)

// contentionConfig turns on every contention-prone subsystem at once —
// churn lifecycles, maintenance (concurrent routing-table reads and
// owner-row writes), an empirical transport under a corrupt plan
// (retransmissions, cross-shard acknowledgements) — and so draws from
// every one of a shard's random streams.
func contentionConfig(shards int) Config {
	return Config{
		Protocol:       "chord",
		Overlay:        OverlayConfig{Bits: 8},
		Scenario:       "churn",
		Params:         Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 1500},
		Transport:      Empirical{Median: 0.06},
		Fault:          fault.Plan{Corrupt: 0.05},
		Duration:       4,
		Shards:         shards,
		Seed:           21,
		Maintain:       true,
		StabilizeEvery: 0.5,
	}
}

// TestDeterministicAcrossGOMAXPROCS locks the persistent-worker engine's
// scheduling independence: for a fixed (Seed, Shards) pair the result
// must be byte-identical whether the workers take turns on one core
// (GOMAXPROCS=1) or race on however many cores the host offers. CI runs
// this under -race, so on contentionConfig the test is simultaneously the
// bit-identity and the data-race check for the worker/barrier
// architecture.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := contentionConfig(4)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	procs := []int{1, 2, runtime.NumCPU()}
	results := make([]*Result, len(procs))
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		results[i] = mustRun(t, cfg)
	}
	runtime.GOMAXPROCS(prev)
	for i := 1; i < len(procs); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("GOMAXPROCS %d vs %d diverged:\n%+v\nvs\n%+v",
				procs[0], procs[i], results[0], results[i])
		}
	}
}

// TestDefaultIsOneShard: a zero Shards is one event queue drained inline,
// the very run an explicit Shards 1 computes. contentionConfig draws from
// the shards' random streams, so any other default shard count changes
// the Result.
func TestDefaultIsOneShard(t *testing.T) {
	def := mustRun(t, contentionConfig(0))
	if def.Shards != 1 {
		t.Errorf("default run reports Shards = %d, want 1", def.Shards)
	}
	if one := mustRun(t, contentionConfig(1)); !reflect.DeepEqual(def, one) {
		t.Errorf("default and Shards 1 runs diverged:\n%+v\nvs\n%+v", def, one)
	}
}

// TestInlineMatchesWorkers pins the single-shard inline path against the
// multi-shard worker path on the qualitative contract (the quantitative
// per-shard-count results legitimately differ — the shard count is part
// of the sampling plan): a lossless churn-free run completes every lookup
// at Shards=1 and Shards=4 alike, under whatever parallelism the host
// gives the workers. A sparse run then pins the workers on one core and
// on many, and the heap reference, to exact agreement where deferred
// delivery is most exposed.
func TestInlineMatchesWorkers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		res := mustRun(t, Config{
			Protocol: "chord",
			Overlay:  OverlayConfig{Bits: 8},
			Scenario: "massfail",
			Params:   Params{FailFraction: 0, Rate: 600},
			Duration: 3,
			Shards:   shards,
			Seed:     5,
		})
		total := res.Totals()
		if total.Started == 0 || total.Completed != total.Started {
			t.Errorf("shards=%d: %d/%d lookups completed, want all", shards, total.Completed, total.Started)
		}
	}

	// Cross-shard messages are pushed by their destination at the start of
	// the epoch after the one that sent them, so between the two a message
	// is in no queue. A sparse replicated run puts the engine in the state
	// where that matters: once the last scheduled lookup has started, a
	// failover notice travelling back to its source is the only pending
	// work there is, with every queue empty (across these seeds that
	// happens at every shard count; 7 and 15 hit it at all three). The run
	// must neither end under the notice nor idle-skip past its arrival,
	// on one core or many, and whichever queue the shards run on.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for seed := uint64(1); seed <= 16; seed++ {
		for _, shards := range []int{2, 3, 8} {
			cfg := Config{
				Protocol:  "chord",
				Overlay:   OverlayConfig{Bits: 8},
				Scenario:  "massfail",
				Params:    Params{FailFraction: 0.5, FailTime: 1, Rate: 0.3, Replicas: 3},
				Transport: Empirical{Median: 0.06},
				Duration:  60,
				Shards:    shards,
				Seed:      seed,
			}
			workers := mustRun(t, cfg)
			if total := workers.Totals(); total.Started != total.Completed+total.Failed {
				t.Errorf("seed=%d shards=%d: %d lookups started, %d completed + %d failed: a message was stranded",
					seed, shards, total.Started, total.Completed, total.Failed)
			}
			// The same workers, taking turns on one core.
			runtime.GOMAXPROCS(1)
			inline := mustRun(t, cfg)
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(workers, inline) {
				t.Errorf("seed=%d shards=%d: worker and inline runs diverged:\n%+v\nvs\n%+v", seed, shards, workers, inline)
			}
			if heap := runHeap(t, cfg); !reflect.DeepEqual(workers, heap) {
				t.Errorf("seed=%d shards=%d: wheel and heap runs diverged:\n%+v\nvs\n%+v", seed, shards, workers, heap)
			}
		}
	}
}
