package eventsim

import (
	"testing"

	"rcm/fault"
)

// The engine's throughput, shard scaling and the 2^20 run are measured
// by the repository benchmark (bash benchmark/run.sh); the two
// benchmarks here are the comparisons it has no workload for. Neither
// feeds a gate or an artifact.

// benchEvents times run over cfg after one warm-up and reports events/s.
func benchEvents(b *testing.B, cfg Config, run func(testing.TB, Config) *Result) {
	run(b, cfg)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += run(b, cfg).Events
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
	b.ReportAllocs()
}

// BenchmarkEventSimFault measures the fault injector's cost to runs that
// do not use it: /off has no plan, /noop a plan whose only clause is a
// partition windowed past the horizon — the injector is installed and
// consulted on every dispatch but never fires a coin or drops a request,
// so the event sequence is identical.
func BenchmarkEventSimFault(b *testing.B) {
	for _, mode := range []struct {
		name string
		plan fault.Plan
	}{{"off", fault.Plan{}}, {"noop", fault.Plan{Partition: &fault.Partition{Groups: 2, Window: fault.Window{From: 100, To: 101}}}}} {
		b.Run(mode.name, func(b *testing.B) {
			// 4096 nodes, a massive failure mid-run, a dense lookup
			// workload and maintenance on — every event kind on the
			// hot path.
			cfg := Config{
				Protocol: "chord",
				Overlay:  OverlayConfig{Bits: 12},
				Scenario: "massfail",
				Params:   Params{FailFraction: 0.3, FailTime: 1, Rate: 20000},
				Duration: 2,
				Shards:   4,
				Maintain: true,
				Seed:     1,
				Fault:    mode.plan,
			}
			benchEvents(b, cfg, mustRun)
		})
	}
}

// BenchmarkEventSimScheduler contrasts the two eventQueue implementations
// on a timer-dominated churn scenario — every node cycles through
// exponential sessions with periodic stabilization and join maintenance,
// so the pending set is large and every stabilization re-arms itself.
// Retransmission timers bypass both queues (each shard's pending ring
// holds them), so the queues carry requests, lifecycle toggles and
// stabilization timers.
// /wheel is the engine as shipped, /heap runs it on the binary-heap
// reference through the runOverlay seam. The two sub-benchmarks process
// the *same* event sequence (results are bit-identical across queues),
// so their events/s compare apples to apples.
func BenchmarkEventSimScheduler(b *testing.B) {
	for _, sched := range []struct {
		name string
		run  func(testing.TB, Config) *Result
	}{{"wheel", mustRun}, {"heap", runHeap}} {
		b.Run(sched.name, func(b *testing.B) {
			benchEvents(b, Config{
				Protocol:       "chord",
				Overlay:        OverlayConfig{Bits: 12},
				Scenario:       "churn",
				Params:         Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 20000},
				Duration:       2,
				Shards:         4,
				Maintain:       true,
				StabilizeEvery: 0.25,
				Seed:           1,
			}, sched.run)
		})
	}
}
