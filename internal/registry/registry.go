// Package registry is the canonical home of the framework's two extension
// points — the analytic Geometry interface (§3/§4 of the paper) and the
// concrete Protocol overlay interface — together with the name-keyed
// registries that resolve either vocabulary (the paper's geometry terms or
// the DHT system names) to implementations.
//
// The package sits below every consumer: internal/core aliases Geometry,
// internal/dht aliases Protocol and Config and resolves dht.New through
// Protocols, and the public surfaces (package rcm and rcm/exp)
// re-export the types and the Register functions. The five built-in
// geometries and protocols are ordinary registrants (internal/core and
// internal/dht register them in their init functions), so a user-registered
// geometry is indistinguishable from a built-in: it flows through the
// analytic evaluators, the simulator factory, the experiment runner, the
// CLIs and the figure generators by name.
//
// Protocols additionally expose optional *capabilities* — interfaces the
// event layer (rcm/eventsim) discovers by type assertion: Forwarder
// (per-hop candidate enumeration; required to run under eventsim) and
// Maintainer (join/stabilize maintenance). The two tables here, eventsim's
// scenario registry (RegisterScenario) and the lifetime family table
// (lifetime.Register) take user registrants; the "name[:arg]" parser tables
// of transports, stores and modes are closed, built-ins only. All are
// instances of the one name registry in rcm/spec, so the naming rules
// cannot differ between them.
package registry

import (
	"rcm/overlay"
	"rcm/spec"
)

// Geometry is the RCM description of a DHT routing geometry (§4.1, steps
// 2–3): the routing-distance distribution n(h) and the per-phase failure
// probability Q(m). Implementations must be immutable value types safe for
// concurrent use; every analytic quantity — p(h,q), E[S], r(N,q) and the
// §5 scalability classification — derives mechanically from these two
// ingredients.
type Geometry interface {
	// Name returns the geometry's name as used in the paper's figures
	// (e.g. "tree", "hypercube", "xor", "ring", "symphony").
	Name() string
	// System returns the DHT system associated with the geometry
	// (e.g. Plaxton, CAN, Kademlia, Chord, Symphony).
	System() string
	// MaxDistance returns the maximum routing distance (in hops or phases)
	// to any node in a fully-populated d-bit identifier space.
	MaxDistance(d int) int
	// LogNodesAt returns ln n(h): the natural log of the number of nodes at
	// routing distance h from a root node in a fully-populated d-bit space.
	// It returns -Inf when h is outside [1, MaxDistance(d)].
	LogNodesAt(d, h int) float64
	// PhaseFailure returns Q(m): the probability that the routing process is
	// absorbed into the failure state during a phase with m phases
	// remaining, under node-failure probability q. d is the identifier
	// length (only d-dependent geometries like Symphony use it).
	PhaseFailure(d, m int, q float64) float64
}

// Protocol is a concrete DHT overlay with static routing tables — the
// simulation counterpart of a Geometry. Implementations are safe for
// concurrent Route calls once constructed (tables are read-only).
type Protocol interface {
	// Name returns the protocol name (e.g. "chord").
	Name() string
	// Space returns the identifier space the overlay populates.
	Space() overlay.Space
	// Route attempts to deliver a message from src to dst using only alive
	// nodes. src and dst are assumed alive (the static-resilience harness
	// conditions on surviving pairs). It reports the number of hops taken
	// and whether the destination was reached.
	Route(src, dst overlay.ID, alive *overlay.Bitset) (hops int, ok bool)
	// Neighbors returns a copy of node x's routing-table entries, used by
	// the percolation analysis to build the overlay graph.
	Neighbors(x overlay.ID) []overlay.ID
}

// Config is the one canonical overlay-construction configuration, shared by
// the simulator factory (dht.New), the experiment runner (rcm/exp) and the
// public facade (package rcm) — there is exactly one copy of these fields
// in the module.
type Config struct {
	// Bits is the identifier length d; the overlay has 2^d nodes.
	Bits int
	// Seed seeds the deterministic RNG used for randomized table entries.
	Seed uint64
	// SymphonyNear and SymphonyShortcuts set kn and ks for Symphony
	// overlays; both default to 1 (the paper's Fig. 7 setting) when zero.
	// Other registrants are free to ignore or reinterpret them.
	SymphonyNear      int
	SymphonyShortcuts int
}

// Forwarder is an optional Protocol capability used by the message-level
// event simulator (rcm/eventsim): per-hop candidate enumeration, the
// decision a real node can make locally. AppendCandidateHops appends to buf
// the next-hop candidates node x would try for a message addressed to dst,
// in preference order, and returns the extended slice (callers reuse buf
// across hops to stay allocation-free).
//
// The contract that makes event-level routing agree with Route's
// global-knowledge greedy walk: every candidate must make strict progress
// toward dst under the protocol's distance metric (so retry chains
// terminate), and the first *alive* candidate in the returned order must be
// exactly the hop Route would take against the same alive set. dst itself
// is a legal candidate; x and non-progressing entries are not.
type Forwarder interface {
	AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID
}

// Maintainer is an optional Protocol capability: a protocol that can
// (re)build one node's routing state from a known-alive population,
// enabling join and periodic-stabilization dynamics in rcm/eventsim. Both
// methods return the number of protocol messages the operation models
// (probes plus responses), which the event engine charges to the node's
// maintenance budget. A nil alive set disables the aliveness filter.
//
// Implementations must confine their writes to node x's own table rows:
// the event engine calls Maintainer methods for x only from the shard that
// owns x, concurrently with other shards maintaining and reading *their*
// nodes' rows.
type Maintainer interface {
	// Join (re)initializes every routing-table entry of x toward alive
	// nodes — the table build-out a node performs when it (re)enters the
	// overlay.
	Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int
	// Stabilize performs one periodic maintenance round for x, refreshing
	// a single routing-table entry toward the alive population.
	Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int
}

// GeometryFactory builds an analytic geometry from a configuration. Most
// geometries ignore the configuration entirely; Symphony reads kn/ks.
type GeometryFactory func(Config) (Geometry, error)

// ProtocolFactory builds a concrete overlay from a configuration.
type ProtocolFactory func(Config) (Protocol, error)

// Geometries and Protocols are the two name tables, instances of the
// module's one name registry (rcm/spec): case folding, aliases, collision
// checking, Lookup, Canonical, registration-order Names and the "unknown
// name (have …)" error all live there, and consumers call them directly.
var (
	Geometries = spec.NewRegistry[GeometryFactory]("registry", "geometry")
	Protocols  = spec.NewRegistry[ProtocolFactory]("registry", "protocol")
)
