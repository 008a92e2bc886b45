package main

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"

	"rcm"
	"rcm/exp"
	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/sim"
	"rcm/overlay"
)

// csvSink counts the CSV lines written to it and, when h is set,
// digests the bytes; nothing is kept.
type csvSink struct {
	lines int
	h     hash.Hash64
}

func (s *csvSink) Write(p []byte) (int, error) {
	s.lines += bytes.Count(p, []byte{'\n'})
	if s.h != nil {
		s.h.Write(p)
	}
	return len(p), nil
}

// ---- analytic_grid ------------------------------------------------------

type analyticGrid struct {
	plan   exp.Plan
	passes int
	sz     sizes
}

func setupAnalytic(seed uint64, sz sizes) (instance, error) {
	a := &analyticGrid{
		plan:   exp.Plan{Name: "analytic_grid", Specs: exp.AllSpecs(), Bits: sz.analyticBits, Qs: exp.PaperQGrid()},
		passes: sz.analyticPasses,
		sz:     sz,
	}
	for i := 0; i < sz.analyticWarm; i++ {
		if err := a.pass(io.Discard); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// pass evaluates the whole grid once with fresh caches and encodes it.
func (a *analyticGrid) pass(w io.Writer, opts ...exp.Option) error {
	return exp.StreamCSV(w, exp.Stream(context.Background(), a.plan, opts...))
}

func (a *analyticGrid) rep(tr *tracer, parent int32, i int) (repStats, error) {
	sink := &csvSink{}
	var err error
	obj0, _ := mallocs()
	parts := make([]float64, a.passes)
	wall, cpu := timed(tr, parent, "repetition", i, func(repSpan int32) {
		for p := 0; p < a.passes && err == nil; p++ {
			if p == a.passes-1 {
				sink.h = fnv.New64a() // the last pass is the one digested
			}
			parts[p] = tr.measure(repSpan, "exp.Stream+StreamCSV", i, func() { err = a.pass(sink) })
		}
	})
	if err != nil {
		return repStats{}, err
	}
	obj1, _ := mallocs()
	rows := float64(sink.lines - a.passes) // one header line per pass
	return repStats{
		wall: wall, cpu: cpu, parts: parts, work: rows, attempted: 1, digest: sink.h.Sum64(),
		layer: map[string]float64{
			"exp.ns_per_row":     wall * 1e9 / rows,
			"exp.allocs_per_row": (obj1 - obj0) / rows,
		},
	}, nil
}

func (a *analyticGrid) verify(reps []repStats) (int, []string) {
	checks, failures := sameDigests(reps)

	// The serial runner without the memo is the reference path: its
	// CSV must be byte-identical to the default runner's.
	ref := &csvSink{h: fnv.New64a()}
	checks++
	if err := a.pass(ref, exp.WithWorkers(1), exp.WithoutMemo()); err != nil {
		failures = append(failures, "serial/no-memo pass: "+err.Error())
	} else if ref.h.Sum64() != reps[0].digest {
		failures = append(failures, "CSV of the default runner differs from the serial/no-memo runner")
	}

	// r(N,0) = 1 for every geometry at every size.
	checks++
	for row, err := range exp.Stream(context.Background(), a.plan) {
		if err != nil {
			failures = append(failures, "stream: "+err.Error())
			break
		}
		if row.Q == 0 && math.Abs(row.AnalyticRoutability-1) > 1e-12 {
			failures = append(failures, fmt.Sprintf("r(2^%d,0) = %v for %s, want 1", row.Bits, row.AnalyticRoutability, row.Geometry))
			break
		}
	}
	return checks, failures
}

func (a *analyticGrid) probes(tr *tracer, parent int32) (map[string]float64, error) {
	out := make(map[string]float64)
	d := a.sz.probeFor
	rows, err := exp.Run(context.Background(), a.plan)
	if err != nil {
		return nil, err
	}
	n := float64(len(rows))
	def := probe(tr, parent, "exp.Stream default", 4*d, func() { err = a.pass(io.Discard) }) / n
	serial := probe(tr, parent, "exp.Stream serial/no-memo", 4*d, func() {
		err = a.pass(io.Discard, exp.WithWorkers(1), exp.WithoutMemo())
	}) / n
	if err != nil {
		return nil, err
	}
	out["exp.serial_nomemo_ns_per_row"] = serial
	out["exp.memo_speedup"] = serial / def
	out["exp.encode_ns_per_row"] = probe(tr, parent, "exp.WriteCSV", d, func() { err = exp.WriteCSV(io.Discard, rows) }) / n
	if err != nil {
		return nil, err
	}

	geoms := core.AllGeometries()
	var d16 float64
	for gi, g := range geoms {
		d16 += probe(tr, parent, "core.Routability d=16 "+g.Name(), d, func() { _, err = core.Routability(g, 16, 0.3) })
		out["core.routability_d100_ns."+geometryNames[gi]] = probe(tr, parent, "core.Routability d=100 "+g.Name(), d, func() {
			_, err = core.Routability(g, 100, 0.3)
		})
		if err != nil {
			return nil, err
		}
	}
	out["core.routability_d16_ns"] = d16 / float64(len(geoms))
	var pf float64
	for _, g := range geoms {
		pf += probe(tr, parent, "Geometry.PhaseFailure "+g.Name(), d/4, func() { sinkFloat = g.PhaseFailure(64, 64, 0.3) })
	}
	out["core.phase_failure_ns"] = pf / float64(len(geoms))
	out["core.classify_ms"] = tr.measure(parent, "core.Classify", -1, func() {
		for _, g := range geoms {
			core.Classify(g, 0.15, core.ClassifyOptions{})
		}
	}) * 1e3 / float64(len(geoms))
	return out, nil
}

func (a *analyticGrid) close() {}

// sinkFloat keeps probed pure calls from being optimised away.
var sinkFloat float64

// sameDigests checks that every repetition produced the same output.
func sameDigests(reps []repStats) (int, []string) {
	for i, r := range reps {
		if r.digest != reps[0].digest {
			return 1, []string{fmt.Sprintf("output of repetition %d differs from repetition 0", i)}
		}
	}
	return 1, nil
}

// ---- static_sim ---------------------------------------------------------

type staticSim struct {
	plan exp.Plan
	opts []exp.Option
	seed uint64
	sz   sizes
	rows []exp.Row // of the last repetition
}

func setupStaticSim(seed uint64, sz sizes) (instance, error) {
	s := &staticSim{
		plan: exp.Plan{Name: "static_sim", Specs: exp.AllSpecs(), Bits: []int{sz.simBits}, Qs: exp.PaperQGrid()},
		opts: []exp.Option{exp.WithModes(exp.ModeSim), exp.WithPairs(sz.simPairs), exp.WithTrials(sz.simTrials), exp.WithSeed(seed)},
		seed: seed,
		sz:   sz,
	}
	warm := s.plan
	warm.Bits = []int{sz.simWarmBits}
	if _, err := exp.Run(context.Background(), warm, s.opts...); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *staticSim) rep(tr *tracer, parent int32, i int) (repStats, error) {
	var err error
	// Overlay construction is inside the window: each Run builds the
	// five overlays afresh.
	wall, cpu := timed(tr, parent, "exp.Run", i, func(int32) {
		s.rows, err = exp.Run(context.Background(), s.plan, s.opts...)
	})
	if err != nil {
		return repStats{}, err
	}
	h := fnv.New64a()
	routes := 0
	for _, r := range s.rows {
		routes += r.SimPairs
		fmt.Fprintf(h, "%s %x %x;", r.Protocol, math.Float64bits(r.Q), math.Float64bits(r.SimRoutability))
	}
	return repStats{
		wall: wall, cpu: cpu, work: float64(routes), attempted: 1, digest: h.Sum64(),
		layer: map[string]float64{"exp.ns_per_row": wall * 1e9 / float64(len(s.rows))},
	}, nil
}

// simTolerance is the calibrated distance between simulated and
// analytic routability per protocol (integration_test.go, Fig. 6).
var simTolerance = map[string]float64{"plaxton": 0.02, "can": 0.02, "kademlia": 0.09}

// simAgrees holds a simulated routability against the closed form. The
// ring's closed form is a lower bound, tight only at small q
// (Fig. 6(b)): two-sided within 0.04 at q = 0.1, above it one-sided.
func simAgrees(protocol string, q, simulated, analytic float64) (tol float64, checked, ok bool) {
	diff := simulated - analytic
	if protocol == "chord" {
		if q < 0.2 {
			return 0.04, true, math.Abs(diff) <= 0.04
		}
		return 0.02, true, diff >= -0.02
	}
	tol, checked = simTolerance[protocol]
	return tol, checked, math.Abs(diff) <= tol
}

func (s *staticSim) verify(reps []repStats) (int, []string) {
	checks, failures := sameDigests(reps)
	for _, r := range s.rows {
		if !(near(r.Q, 0.1) || near(r.Q, 0.3) || near(r.Q, 0.5)) {
			continue
		}
		model, err := rcm.ModelFor(r.Protocol, rcm.Config{})
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		want, err := model.Routability(r.Bits, r.Q)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		tol, checked, ok := simAgrees(r.Protocol, r.Q, r.SimRoutability, want)
		if !checked {
			continue
		}
		checks++
		if !ok {
			failures = append(failures, fmt.Sprintf("%s q=%.2f: simulated %.4f vs analytic %.4f, tolerance %.2f",
				r.Protocol, r.Q, r.SimRoutability, want, tol))
		}
	}
	return checks, failures
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func (s *staticSim) probes(tr *tracer, parent int32) (map[string]float64, error) {
	out := make(map[string]float64)
	d := s.sz.probeFor
	n := 1 << s.sz.probeBits
	for _, name := range protocolNames {
		var p dht.Protocol
		var err error
		builds := make([]float64, 3)
		for i := range builds {
			builds[i] = tr.measure(parent, "dht.New "+name, -1, func() {
				p, err = dht.New(name, dht.Config{Bits: s.sz.probeBits, Seed: s.seed})
			}) * 1e3
			if err != nil {
				return nil, err
			}
		}
		out["dht.build_ms."+name] = median(builds)

		rng := overlay.NewRNG(mix(s.seed, 1))
		alive := overlay.NewBitset(n)
		alive.FillRandomAlive(0.3, rng)
		var src, dst [1024]overlay.ID
		for i := range src {
			src[i], dst[i] = overlay.ID(rng.Intn(n)), overlay.ID(rng.Intn(n))
		}
		k := 0
		out["dht.route_ns."+name] = probe(tr, parent, "Protocol.Route "+name, d, func() {
			p.Route(src[k&1023], dst[k&1023], alive)
			k++
		})
		if name != "chord" {
			continue
		}
		var res sim.Result
		opt := sim.Options{Pairs: 20000, Trials: 1, Seed: s.seed}
		sec := tr.measure(parent, "sim.MeasureStaticResilience chord", -1, func() {
			res, err = sim.MeasureStaticResilience(p, 0.3, opt)
		})
		if err != nil {
			return nil, err
		}
		out["sim.static_ns_per_pair"] = sec * 1e9 / float64(res.Pairs)
		out["sim.routable_share"] = res.Routability
	}
	rng := overlay.NewRNG(mix(s.seed, 2))
	alive := overlay.NewBitset(n)
	out["overlay.bitset_fill_ns_per_node"] = probe(tr, parent, "Bitset.FillRandomAlive", d, func() {
		alive.FillRandomAlive(0.3, rng)
	}) / float64(n)
	out["overlay.rng_ns"] = probe(tr, parent, "RNG.Uint64n", d/4, func() { sinkFloat = float64(rng.Uint64n(uint64(n))) })
	return out, nil
}

func (s *staticSim) close() {}
