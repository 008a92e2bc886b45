// Package exp is the public experiment-runner subsystem: a declarative
// Plan describes a (geometry × d × q) grid plus message-level event runs,
// and a sharded parallel runner executes the grid's cells across workers,
// memoizing the analytic hot path and streaming results as flat,
// deterministically-ordered rows.
//
// A Plan is pure data; execution is configured with functional options and
// driven through a context:
//
//	plan := exp.Plan{
//		Name:  "fig6a-xor",
//		Specs: []exp.Spec{exp.MustSpec("kademlia")},
//		Bits:  []int{16},
//		Qs:    exp.PaperQGrid(),
//	}
//	for row, err := range exp.Stream(ctx, plan,
//		exp.WithModes(exp.ModeAnalytic, exp.ModeSim),
//		exp.WithPairs(20000), exp.WithTrials(3), exp.WithSeed(1),
//	) {
//		if err != nil { ... }
//		// one Row per cell, in plan order
//	}
//
// Stream yields one Row per cell as an iter.Seq2[Row, error] (event cells
// yield one Row per time bucket); absent measurements are NaN. Rows
// arrive in plan order (spec-major, then bits, then q; event cells after
// the grid) regardless of how many workers executed them,
// so golden-file tests of the CSV encoding are stable and a parallel
// run is byte-identical to a serial one. Only a bounded reorder window of
// 64 × workers cells is in flight at any moment — finished rows waiting
// for their turn, plus at most one computing cell per worker — so a
// million-cell grid streams in constant memory; Run is the convenience
// wrapper that collects every row into a slice. The consumer checks the
// context before yielding each cell's rows: a canceled grid stops
// promptly, however full the window, and the iterator yields the
// context's error.
//
// Geometries and protocols resolve through the shared name-keyed registry
// (rcm.RegisterGeometry / rcm.RegisterProtocol), so a user-registered
// geometry sweeps through analytic, simulation and event cells exactly
// like the paper's five built-ins — see examples/randchord. Event
// cells run the message-level simulator in rcm/eventsim (ModeEvent), each
// described once in the engine's own type:
//
//	plan.Events = []eventsim.Config{{
//		Scenario: "massfail",
//		Params:   eventsim.Params{FailFraction: 0.3, FailTime: 1},
//		Duration: 4,
//	}}
//
// so every engine knob is reachable from a plan; the runner pins Protocol,
// Overlay and Seed per cell, and scenarios resolve through that package's
// scenario registry.
//
// The analytic columns share one memoization cache per run: the phase
// products Π(1−Q(m)) share prefixes across the
// entire q-grid, which is what makes wide grids cheap (the repository
// benchmark reports it as exp.memo_speedup).
package exp

import (
	"fmt"

	"rcm/internal/registry"
)

// Geometry is the analytic extension point: the RCM description of a DHT
// routing geometry. It is the same type as rcm.Geometry.
type Geometry = registry.Geometry

// Config is the canonical overlay-construction configuration, shared with
// dht.New and the rcm facade. Within a Plan the runner overrides Bits (from
// Plan.Bits) and Seed (from WithSeed) per cell.
type Config = registry.Config

// Spec pairs an analytic geometry with the concrete protocol that realizes
// it. Protocol may be empty for analytic-only plans; Geometry must be set.
type Spec struct {
	// Geometry is the RCM analytic model.
	Geometry Geometry
	// Protocol names the overlay used for simulation and event cells, in
	// either registry vocabulary (e.g. "kademlia" or "xor"). Empty disables
	// sim/event cells for this spec.
	Protocol string
	// Overlay carries protocol-specific construction parameters (e.g.
	// Symphony's kn/ks). Its Bits and Seed fields are ignored: the runner
	// sets them per cell from Plan.Bits and the run seed.
	Overlay Config
}

// SpecFor resolves a geometry or protocol name (either vocabulary: the
// paper's geometry terms, the system names, or any user-registered name)
// to a Spec through the shared registry. The overlay configuration is
// passed to the geometry factory (Symphony reads kn/ks from it; most
// geometries ignore it) and carried into the Spec for protocol
// construction. When no protocol is registered under the name the Spec is
// analytic-only; a protocol registered without a matching geometry does
// not resolve here (a Spec always carries a Geometry) — register both
// halves under one name as examples/randchord does.
func SpecFor(name string, overlay Config) (Spec, error) {
	f, ok := registry.Geometries.Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("exp: %w", registry.Geometries.Unknown(name))
	}
	g, err := f(overlay)
	if err != nil {
		canonical, _ := registry.Geometries.Canonical(name)
		return Spec{}, fmt.Errorf("exp: geometry %q: %w", canonical, err)
	}
	protocol, _ := registry.Protocols.Canonical(name)
	return Spec{Geometry: g, Protocol: protocol, Overlay: overlay}, nil
}

// MustSpec is SpecFor with the default overlay configuration; it panics on
// unknown names and is intended for statically-known registrants.
func MustSpec(name string) Spec {
	s, err := SpecFor(name, Config{})
	if err != nil {
		panic(err)
	}
	return s
}

// AllSpecs returns the five paper geometries paired with their protocols,
// in the paper's presentation order, Symphony at kn = ks = 1.
func AllSpecs() []Spec {
	specs := make([]Spec, 0, 5)
	for _, name := range []string{"plaxton", "can", "kademlia", "chord", "symphony"} {
		specs = append(specs, MustSpec(name))
	}
	return specs
}

// PaperQGrid returns the failure-probability grid of Fig. 6/7(a):
// 0 to 0.90 in steps of 0.05 (19 points).
func PaperQGrid() []float64 {
	qs := make([]float64, 0, 19)
	for q := 0.0; q <= 0.901; q += 0.05 {
		qs = append(qs, q)
	}
	return qs
}
