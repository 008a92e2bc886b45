package eventsim

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"rcm/internal/dht"
	"rcm/internal/registry"
)

// benchConfig is a representative mid-size run: 4096 nodes, a massive
// failure mid-run, a dense lookup workload and maintenance on — every
// event kind on the hot path.
func benchConfig(shards int) Config {
	return Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 12},
		Scenario: "massfail",
		Params:   Params{FailFraction: 0.3, FailTime: 1, Rate: 20000},
		Duration: 2,
		Shards:   shards,
		Maintain: true,
		Seed:     1,
	}
}

// BenchmarkEventSim measures end-to-end engine throughput. Beyond the
// standard ns/op it reports the two numbers the BENCH_eventsim.json
// artifact tracks: events/s (simulation event throughput) and
// allocs/event (steady-state allocation discipline; the heaps, candidate
// buffers and accumulators are all reused, so this should stay well below
// one).
func BenchmarkEventSim(b *testing.B) {
	cfg := benchConfig(4)
	// Warm up once so one-time construction cost is excluded from the
	// allocation accounting.
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
	if events > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
	}
	b.ReportAllocs()
}

// BenchmarkEventSimShards sweeps the shard count on the same workload:
// /1 is the inline single-wheel path, the rest exercise the persistent
// shard workers. The /4-vs-/1 events/s ratio is the scaling number
// scripts/bench.sh gates on — on parallel hardware shards must buy
// throughput; on a serial host they must at least not cost it.
func BenchmarkEventSimShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(shards), func(b *testing.B) {
			cfg := benchConfig(shards)
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/s")
			}
		})
	}
}

// BenchmarkEventSimFault measures the fault middleware's cost to runs
// that do not use it: /off is the plain transport, /noop wraps the same
// transport in a Faulty whose only clause is a partition windowed past
// the horizon — the injector is installed and consulted on every
// dispatch but never fires a coin or drops a request, so the event
// sequence is identical. scripts/bench.sh gates /noop at >= 0.98x the
// events/s of /off from the same run.
func BenchmarkEventSimFault(b *testing.B) {
	for _, mode := range []struct {
		name      string
		transport string
	}{{"off", "constant"}, {"noop", "fault:partition:2@100-101/constant"}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchConfig(4)
			tr, err := ParseTransport(mode.transport)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Transport = tr
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/s")
			}
			b.ReportAllocs()
		})
	}
}

// largeOverlay lazily builds the 2^20-node chord overlay the macro
// benchmark routes on, once per process: construction costs far more than
// a run and the overlay is read-only under massfail without maintenance,
// so every sub-benchmark shares it through RunOverlay.
var largeOverlay struct {
	once sync.Once
	p    registry.Protocol
	err  error
}

// BenchmarkEventSimLarge is the macro-benchmark: a million-node (2^20)
// overlay under massive failure, swept across shard counts {1,2,4,8} so
// the scaling curve at cache-hostile population sizes is a tracked
// artifact alongside the mid-size numbers.
func BenchmarkEventSimLarge(b *testing.B) {
	largeOverlay.once.Do(func() {
		largeOverlay.p, largeOverlay.err = dht.New("chord", dht.Config{Bits: 20, Seed: 1})
	})
	if largeOverlay.err != nil {
		b.Fatal(largeOverlay.err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(shards), func(b *testing.B) {
			cfg := Config{
				Protocol: "chord",
				Overlay:  OverlayConfig{Bits: 20},
				Scenario: "massfail",
				Params:   Params{FailFraction: 0.3, FailTime: 0.5, Rate: 20000},
				Duration: 1,
				Buckets:  4,
				Shards:   shards,
				Seed:     1,
			}
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunOverlay(largeOverlay.p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/s")
			}
		})
	}
}

// churnBenchConfig is the timer-dominated workload the timing-wheel
// rewrite targets: every node cycles through exponential sessions, with
// periodic stabilization and join maintenance — the pending set is large
// (the whole pre-scheduled lifecycle plus per-node timers) and almost
// every event arms another timer.
func churnBenchConfig() Config {
	return Config{
		Protocol:       "chord",
		Overlay:        OverlayConfig{Bits: 12},
		Scenario:       "churn",
		Params:         Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 20000},
		Duration:       2,
		Shards:         4,
		Maintain:       true,
		StabilizeEvery: 0.25,
		Seed:           1,
	}
}

// BenchmarkEventSimScheduler contrasts the two eventQueue implementations
// on the churn-heavy scenario: /wheel is the engine as shipped, /heap runs
// it on the binary-heap reference through the runOverlay seam. The two
// sub-benchmarks process the *same* event sequence (results are
// bit-identical across queues), so their events/s compare apples to
// apples; CI's benchcmp step asserts the wheel sustains 1.5x the heap's
// events/s from the same run's artifact.
func BenchmarkEventSimScheduler(b *testing.B) {
	for _, sched := range []struct {
		name string
		run  func(testing.TB, Config) *Result
	}{{"wheel", mustRun}, {"heap", runHeap}} {
		b.Run(sched.name, func(b *testing.B) {
			cfg := churnBenchConfig()
			sched.run(b, cfg)
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += sched.run(b, cfg).Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/s")
			}
			b.ReportAllocs()
		})
	}
}
