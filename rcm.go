package rcm

import (
	"fmt"

	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/registry"
	"rcm/internal/sim"
)

// Geometry is the analytic extension point of the framework: the RCM
// description of a DHT routing geometry (§4.1) — the routing-distance
// distribution n(h) and the per-phase failure probability Q(m). Implement
// it (the methods use only built-in types) and register it with
// RegisterGeometry to evaluate, classify, sweep and plot a new geometry
// exactly like the paper's five; see examples/randchord for a complete
// walkthrough.
type Geometry = registry.Geometry

// Protocol is the simulation extension point: a concrete DHT overlay with
// static routing tables, routed greedily under the static-resilience
// failure model. Implementations build on package rcm/overlay (identifier
// spaces, bitsets, deterministic RNG) and register with RegisterProtocol.
type Protocol = registry.Protocol

// Config is the canonical overlay-construction configuration, shared by
// the simulator factory, the experiment runner (rcm/exp), the event
// simulator (rcm/eventsim) and this package's SimConfig.
type Config = registry.Config

// GeometryFactory builds a Geometry from a Config (most geometries ignore
// it; Symphony reads kn/ks).
type GeometryFactory = registry.GeometryFactory

// ProtocolFactory builds a Protocol overlay from a Config.
type ProtocolFactory = registry.ProtocolFactory

// Forwarder is the per-hop candidate-enumeration capability: candidates
// for the next hop from x toward dst, best first, with the first *alive*
// candidate equal to the greedy Route hop. It is what message-level
// executors — rcm/eventsim and the live nodes in rcm/node — route with;
// all five built-in protocols implement it.
type Forwarder = registry.Forwarder

// Maintainer is the optional join/stabilize maintenance capability.
// Implementations confine writes to node x's own table rows, so distinct
// nodes may maintain one shared overlay concurrently (each from its own
// goroutine or process); the four table-based built-ins implement it.
type Maintainer = registry.Maintainer

// NewProtocol resolves a protocol name (either registry vocabulary,
// including user registrations) and constructs the overlay — the
// programmatic counterpart of the name-driven Simulate entry point,
// for callers that need the Protocol value itself: routing directly,
// asserting capabilities (Forwarder, Maintainer), or running live nodes
// (rcm/node) on the exact overlay the analytic layers describe.
func NewProtocol(name string, cfg Config) (Protocol, error) {
	p, err := dht.New(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("rcm: %w", err)
	}
	return p, nil
}

// RegisterGeometry adds an analytic geometry to the shared name-keyed
// registry under a canonical name plus optional aliases. Names are
// case-insensitive; a name or alias that is already taken is an error.
// Registered geometries resolve everywhere built-ins do: ModelFor,
// exp.SpecFor, and the rcmcalc/dhtsim/eventsim/figures name flags.
func RegisterGeometry(name string, f GeometryFactory, aliases ...string) error {
	return registry.Geometries.Register(name, f, aliases...)
}

// RegisterProtocol adds a concrete overlay factory to the shared registry,
// with the same naming rules as RegisterGeometry. Registered protocols
// construct through Simulate and NewProtocol exactly like the built-ins;
// to sweep one through the rcm/exp runner, also register the matching
// analytic geometry under the same name (an exp.Spec always carries a
// Geometry — see examples/randchord, which registers both halves).
func RegisterProtocol(name string, f ProtocolFactory, aliases ...string) error {
	return registry.Protocols.Register(name, f, aliases...)
}

// Geometries returns the canonical registered geometry names in
// registration order: the paper's five first, user registrations after.
func Geometries() []string { return registry.Geometries.Names() }

// Protocols returns the canonical registered protocol names in
// registration order.
func Protocols() []string { return registry.Protocols.Names() }

// Model is an analytic RCM description of a DHT routing geometry. The zero
// value is not usable; obtain instances from Tree, Hypercube, XOR, Ring,
// Symphony, Models, ModelFor or NewModel.
type Model struct {
	g core.Geometry
}

// NewModel wraps any Geometry — registered or not — as a Model, giving a
// user-defined geometry the full analytic surface: Routability,
// SuccessProb, ExpectedReach and the numeric scalability probe.
func NewModel(g Geometry) Model { return Model{g: g} }

// ModelFor resolves a geometry name (either vocabulary: the paper's
// geometry terms, the system names, or any registered name or alias)
// through the shared registry and wraps it as a Model. The configuration
// is passed to the geometry's factory; pass Config{} for defaults.
func ModelFor(name string, cfg Config) (Model, error) {
	f, ok := registry.Geometries.Lookup(name)
	if !ok {
		return Model{}, fmt.Errorf("rcm: %w", registry.Geometries.Unknown(name))
	}
	g, err := f(cfg)
	if err != nil {
		canonical, _ := registry.Geometries.Canonical(name)
		return Model{}, fmt.Errorf("rcm: geometry %q: %w", canonical, err)
	}
	return Model{g: g}, nil
}

// Tree returns the Plaxton-style tree geometry (§3.1).
func Tree() Model { return Model{g: core.Tree{}} }

// Hypercube returns the CAN hypercube geometry (§3.2).
func Hypercube() Model { return Model{g: core.Hypercube{}} }

// XOR returns the Kademlia XOR geometry (§3.3).
func XOR() Model { return Model{g: core.XOR{}} }

// Ring returns the Chord ring geometry (§3.4). Its analytic routability is
// a tight lower bound (§4.3.3).
func Ring() Model { return Model{g: core.Ring{}} }

// Symphony returns the small-world geometry (§3.5) with kn near neighbors
// and ks shortcuts. The paper's plots use kn = ks = 1.
func Symphony(kn, ks int) (Model, error) {
	g, err := core.NewSymphony(kn, ks)
	if err != nil {
		return Model{}, err
	}
	return Model{g: g}, nil
}

// Models returns the five geometries analyzed in the paper, Symphony
// configured with kn = ks = 1 as in Fig. 7.
func Models() []Model {
	out := make([]Model, 0, 5)
	for _, g := range core.AllGeometries() {
		out = append(out, Model{g: g})
	}
	return out
}

// Name returns the geometry name used throughout the paper's figures.
func (m Model) Name() string { return m.g.Name() }

// System returns the DHT system the paper associates with the geometry.
func (m Model) System() string { return m.g.System() }

// Geometry returns the underlying geometry, e.g. for use in exp.Spec.
func (m Model) Geometry() Geometry { return m.g }

// Routability returns r(N,q) for N = 2^d: the expected fraction of
// surviving node pairs that can still route to each other (Definition 1,
// computed via Eq. 3).
func (m Model) Routability(d int, q float64) (float64, error) {
	return core.Routability(m.g, d, q)
}

// FailedPathPercent returns 100·(1−r(N,q)) — the y-axis of Fig. 6/7(a).
func (m Model) FailedPathPercent(d int, q float64) (float64, error) {
	return core.FailedPathPercent(m.g, d, q)
}

// SuccessProb returns p(h,q): the probability a route of length h survives
// (Eq. 5).
func (m Model) SuccessProb(d, h int, q float64) (float64, error) {
	return core.SuccessProb(m.g, d, h, q)
}

// ExpectedReach returns E[S]: the expected number of nodes a surviving root
// can route to (§4.1 step 4).
func (m Model) ExpectedReach(d int, q float64) (float64, error) {
	return core.ExpectedReach(m.g, d, q)
}

// Verdict classifies a geometry's large-system behavior (Definition 2).
// The zero value is invalid.
type Verdict = core.Verdict

// Verdict values.
const (
	// Scalable: routability converges to a nonzero value as N → ∞.
	Scalable = core.Scalable
	// Unscalable: routability converges to zero for any q > 0.
	Unscalable = core.Unscalable
	// Indeterminate: the numeric probe could not classify the geometry.
	Indeterminate = core.Indeterminate
)

// Scalability returns the paper's §5 verdict for the geometry together with
// the one-line justification. Geometries without a hand-derived analysis
// (including user-registered ones) return Indeterminate — use
// ClassifyNumerically for them.
func (m Model) Scalability() (Verdict, string) {
	return core.TheoreticalVerdict(m.g)
}

// ClassifyNumerically runs the Knopp-test probe (§5, Theorem 1) on Σ Q(m)
// at failure probability q, independent of the hand-derived verdict. It
// works for any Geometry, including user-defined ones.
func (m Model) ClassifyNumerically(q float64) Verdict {
	return core.Classify(m.g, q, core.ClassifyOptions{})
}

// SimConfig configures a static-resilience simulation (the Fig. 6
// experiment) on a concrete overlay.
type SimConfig struct {
	// Protocol names the overlay in either registry vocabulary
	// (e.g. "chord" or "ring"), including user-registered protocols.
	Protocol string
	// Config is the overlay construction configuration (Bits, Seed, and
	// protocol-specific parameters). Seed also drives the measurement.
	Config
	// Q is the node failure probability.
	Q float64
	// Pairs per trial (default 10000) and independent failure Trials
	// (default 3).
	Pairs  int
	Trials int
}

// SimResult reports a static-resilience measurement: routability with its
// standard error and 95% confidence interval across trials, mean hops, the
// surviving fraction and the pair/trial tallies.
type SimResult = sim.Result

// Simulate builds the overlay and measures its static resilience at cfg.Q.
func Simulate(cfg SimConfig) (SimResult, error) {
	p, err := dht.New(cfg.Protocol, cfg.Config)
	if err != nil {
		return SimResult{}, fmt.Errorf("rcm: %w", err)
	}
	res, err := sim.MeasureStaticResilience(p, cfg.Q, sim.Options{
		Pairs:  cfg.Pairs,
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return SimResult{}, fmt.Errorf("rcm: %w", err)
	}
	return res, nil
}
