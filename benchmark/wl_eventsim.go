package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"rcm/eventsim"
	"rcm/internal/dht"
	"rcm/obs"
	"rcm/overlay"
)

// eventsimRun is both engine workloads. With rebuild the overlay is
// built afresh inside every repetition, which maintenance needs because
// it writes the routing tables; without, one prebuilt overlay is shared
// read-only.
type eventsimRun struct {
	cfg     eventsim.Config
	rebuild bool
	shared  dht.Protocol
	buildMS float64 // of the shared overlay, from set-up
	seed    uint64
	sz      sizes
}

func (e *eventsimRun) build() (dht.Protocol, error) {
	return dht.New(e.cfg.Protocol, e.cfg.Overlay)
}

func setupChurn(seed uint64, sz sizes) (instance, error) {
	e := &eventsimRun{
		cfg: eventsim.Config{
			Protocol: "chord",
			Overlay:  eventsim.OverlayConfig{Bits: sz.churnBits, Seed: seed},
			Scenario: "churn",
			Params:   eventsim.Params{MeanOnline: 1, MeanOffline: 0.25, Rate: sz.churnRate},
			Duration: sz.churnDuration, Shards: 4, Maintain: true, StabilizeEvery: 0.25, Seed: seed,
		},
		rebuild: true, seed: seed, sz: sz,
	}
	warm := e.cfg
	warm.Duration = sz.churnWarmDuration
	if _, err := eventsim.Run(warm); err != nil {
		return nil, err
	}
	return e, nil
}

func largeConfig(seed uint64, sz sizes, rate float64) eventsim.Config {
	return eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: sz.largeBits, Seed: seed},
		Scenario: "massfail",
		Params:   eventsim.Params{FailFraction: 0.3, FailTime: sz.largeDuration / 2, Rate: rate},
		Duration: sz.largeDuration, Buckets: 4, Shards: 4, Seed: seed,
	}
}

func setupLarge(seed uint64, sz sizes) (instance, error) {
	e := &eventsimRun{cfg: largeConfig(seed, sz, sz.largeRate), seed: seed, sz: sz}
	var err error
	t0 := time.Now()
	e.shared, err = e.build()
	e.buildMS = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return nil, err
	}
	if _, err := eventsim.BuildSchedule(e.cfg); err != nil {
		return nil, err
	}
	if _, err := eventsim.RunOverlay(e.shared, largeConfig(seed, sz, sz.largeWarmRate)); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *eventsimRun) rep(tr *tracer, parent int32, i int) (repStats, error) {
	var err error
	var res *eventsim.Result
	layer := map[string]float64{}
	obj0, _ := mallocs()
	var runS float64
	wall, cpu := timed(tr, parent, "repetition", i, func(repSpan int32) {
		p := e.shared
		if e.rebuild {
			layer["dht.build_ms.chord"] = tr.measure(repSpan, "dht.New", i, func() { p, err = e.build() }) * 1e3
			if err != nil {
				return
			}
		}
		runS = tr.measure(repSpan, "eventsim.RunOverlay", i, func() { res, err = eventsim.RunOverlay(p, e.cfg) })
	})
	if err != nil {
		return repStats{}, err
	}
	obj1, _ := mallocs()
	t := res.Totals()
	h := fnv.New64a()
	fmt.Fprint(h, res.Events, res.Lookups, t.Started, t.Skipped, t.Completed, t.Failed, t.Timeouts,
		t.LookupMessages, t.MaintMessages, t.RepairMessages, t.SumHops, t.SumLatency)
	rs := repStats{wall: wall, cpu: cpu, work: float64(res.Events), attempted: 1, digest: h.Sum64(), layer: layer}
	if t.Started != t.Completed+t.Failed {
		rs.failed = 1
	}
	events, started := float64(res.Events), float64(t.Started)
	layer["eventsim.events"] = events
	layer["eventsim.ns_per_event"] = runS * 1e9 / events
	layer["eventsim.allocs_per_event"] = (obj1 - obj0) / events
	layer["eventsim.events_per_lookup"] = events / started
	layer["eventsim.timeouts_per_lookup"] = float64(t.Timeouts) / started
	layer["eventsim.lookup_success"] = float64(t.Completed) / started
	if e.cfg.Maintain {
		layer["eventsim.maint_msg_share"] = float64(t.MaintMessages) / float64(t.MaintMessages+t.LookupMessages+t.RepairMessages)
	}
	if !e.rebuild {
		layer["dht.build_ms.chord"] = e.buildMS
	}
	return rs, nil
}

func (e *eventsimRun) verify(reps []repStats) (int, []string) { return sameDigests(reps) }

// eventsPerSecond runs cfg once on p inside a span.
func eventsPerSecond(tr *tracer, parent int32, name string, p dht.Protocol, cfg eventsim.Config) (float64, error) {
	var res *eventsim.Result
	var err error
	sec := tr.measure(parent, name, -1, func() { res, err = eventsim.RunOverlay(p, cfg) })
	if err != nil {
		return 0, err
	}
	return float64(res.Events) / sec, nil
}

func (e *eventsimRun) probes(tr *tracer, parent int32) (map[string]float64, error) {
	out := make(map[string]float64)
	var err error
	out["eventsim.build_schedule_ms"] = tr.measure(parent, "eventsim.BuildSchedule", -1, func() {
		_, err = eventsim.BuildSchedule(e.cfg)
	}) * 1e3
	if err != nil {
		return nil, err
	}

	// Shards 2 over Shards 1 on the workload's own configuration.
	var perShards [2]float64
	for i := range perShards {
		p := e.shared
		if e.rebuild {
			if p, err = e.build(); err != nil {
				return nil, err
			}
		}
		cfg := e.cfg
		cfg.Shards = i + 1
		if perShards[i], err = eventsPerSecond(tr, parent, fmt.Sprintf("eventsim.RunOverlay shards=%d", i+1), p, cfg); err != nil {
			return nil, err
		}
	}
	out["eventsim.shards2_speedup"] = perShards[1] / perShards[0]

	p := e.shared
	if e.rebuild {
		if p, err = e.build(); err != nil {
			return nil, err
		}
		// The configuration of the repository's BenchmarkEventSim, for
		// continuity with bench/BENCH_eventsim.baseline.json.
		cfg := eventsim.Config{
			Protocol: "chord", Overlay: e.cfg.Overlay, Scenario: "massfail",
			Params:   eventsim.Params{FailFraction: 0.3, FailTime: e.sz.massfailDuration / 2, Rate: e.sz.churnRate},
			Duration: e.sz.massfailDuration, Shards: 4, Maintain: true, Seed: e.seed,
		}
		if out["eventsim.massfail_2p12_events_per_s"], err = eventsPerSecond(tr, parent, "eventsim.RunOverlay massfail", p, cfg); err != nil {
			return nil, err
		}
		if p, err = e.build(); err != nil { // maintenance wrote the tables
			return nil, err
		}
	}
	out["dht.candidate_hops_ns.chord"] = candidateHopsProbe(tr, parent, p, e.seed, e.sz)
	obsProbes(tr, parent, out, e.sz)
	return out, nil
}

func (e *eventsimRun) close() {}

// candidateHopsProbe times Forwarder.AppendCandidateHops on seeded
// pairs of the overlay p.
func candidateHopsProbe(tr *tracer, parent int32, p dht.Protocol, seed uint64, sz sizes) float64 {
	fwd, ok := p.(dht.Forwarder)
	if !ok {
		return 0
	}
	n := int(p.Space().Size())
	rng := overlay.NewRNG(mix(seed, 3))
	var src, dst [1024]overlay.ID
	for i := range src {
		src[i], dst[i] = overlay.ID(rng.Intn(n)), overlay.ID(rng.Intn(n))
	}
	buf := make([]overlay.ID, 0, 64)
	k := 0
	return probe(tr, parent, "Forwarder.AppendCandidateHops "+p.Name(), sz.probeFor, func() {
		buf = fwd.AppendCandidateHops(buf[:0], src[k&1023], dst[k&1023])
		k++
	})
}

// obsProbes times the histogram the engine and the node record into.
func obsProbes(tr *tracer, parent int32, out map[string]float64, sz sizes) {
	var h obs.Histogram
	v := int64(0)
	out["obs.observe_ns"] = probe(tr, parent, "Histogram.Observe", sz.probeFor/4, func() {
		h.Observe(v & 0xffff)
		v += 37
	})
	out["obs.quantile_ns"] = probe(tr, parent, "Histogram.Quantile", sz.probeFor/4, func() { sinkFloat = float64(h.Quantile(0.99)) })
}
