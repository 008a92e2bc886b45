package eventsim

import (
	"reflect"
	"runtime"
	"testing"
)

// TestDeterministicAcrossGOMAXPROCS locks the persistent-worker engine's
// execution-strategy independence: for a fixed (Seed, Shards) pair the
// result must be byte-identical whether the shards are drained inline
// (GOMAXPROCS=1 — the engine detects serial hardware and skips the worker
// goroutines entirely) or by persistent workers racing on however many
// cores the host offers. The scenario turns on every contention-prone
// subsystem at once — churn lifecycles, maintenance (concurrent
// routing-table reads and owner-row writes), a lossy empirical transport
// (retransmissions, cross-shard acknowledgements) — and CI runs this
// under -race, so the test is simultaneously the bit-identity and the
// data-race check for the worker/barrier architecture.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{
		Protocol:       "chord",
		Overlay:        OverlayConfig{Bits: 8},
		Scenario:       "churn",
		Params:         Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 1500},
		Transport:      Lossy{Rate: 0.05, Inner: Empirical{Median: 0.06}},
		Duration:       4,
		Shards:         4,
		Seed:           21,
		Maintain:       true,
		StabilizeEvery: 0.5,
	}
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

// TestInlineMatchesWorkers pins the single-shard inline path against the
// multi-shard worker path on the qualitative contract (the quantitative
// per-shard-count results legitimately differ — the shard count is part
// of the sampling plan): a lossless churn-free run completes every lookup
// at Shards=1 and Shards=4 alike, under whatever parallelism the host
// gives the workers. A sparse run then pins the two paths, and the heap
// reference, to exact agreement where deferred delivery is most exposed.
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
	// however the shards are executed and whichever queue they run on.
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
