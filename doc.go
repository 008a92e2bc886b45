// Package rcm implements the reachable component method (RCM) of Kong,
// Bridgewater and Roychowdhury, "A General Framework for Scalability and
// Performance Analysis of DHT Routing Systems" (DSN 2006, arXiv:cs/0603112):
// an analytical framework that predicts how well a DHT routing geometry
// keeps routing when every node fails independently with probability q, and
// whether that ability survives as the system grows without bound.
//
// The framework is open at both ends. Two public interfaces are the
// extension points:
//
//   - Geometry — the analytic side (§4.1): the routing-distance
//     distribution n(h) and the per-phase failure probability Q(m). Every
//     closed form (routability, per-route success, expected reach) and the
//     §5 Knopp-test scalability probe derive mechanically from these two
//     ingredients, for built-in and user geometries alike.
//
//   - Protocol — the simulation side: a concrete overlay with static
//     routing tables built on package rcm/overlay, routed greedily under
//     the static-resilience failure model.
//
// RegisterGeometry and RegisterProtocol add implementations to a shared
// name-keyed registry; the paper's five geometries (Tree, Hypercube, XOR,
// Ring, Symphony) are ordinary registrants of the same tables. Everything
// downstream — ModelFor, Simulate, the rcm/exp experiment runner, the
// rcm/eventsim event simulator, and the four CLIs (cmd/rcmcalc,
// cmd/dhtsim, cmd/eventsim, cmd/figures) — resolves names through that
// registry, so a registered geometry flows end-to-end into analytics,
// simulation, event simulation and figure generation.
// See examples/randchord for a complete walkthrough.
//
// The package exposes two evaluation layers:
//
//   - Analytic models (Tree, Hypercube, XOR, Ring, Symphony, ModelFor,
//     NewModel): closed-form routability r(N,q), per-route success p(h,q),
//     and the scalable/unscalable classification, evaluated stably up to
//     N = 2^100 and beyond.
//
//   - Protocol simulation (Simulate): concrete overlays under the
//     static-resilience failure model, reproducing the experimental side
//     of the paper's validation.
//
// A third layer lives in rcm/eventsim: message-level discrete-event
// simulation, where registry protocols run real lookup dynamics —
// hop-by-hop forwarding, timeouts, retries, joins and stabilization —
// over pluggable transports, driven by a name-registered scenario
// library and cross-validated against the static layers. It is also the
// churn engine: its churn scenarios measure how the static model's
// predictions transfer to dynamic node populations, with and without
// maintenance, and what the maintenance costs in messages. Protocols opt
// in through two optional capabilities (rcm.Forwarder,
// rcm.Maintainer); all five built-ins implement Forwarder.
//
// Grid-shaped studies — geometry × size × failure-probability sweeps and
// event runs — belong to the public experiment runner in rcm/exp:
// declarative Plans, functional options, context cancellation, and results
// streamed row by row in constant memory. All overlay construction shares one
// canonical Config type across Simulate, dht construction, the event
// simulator and the runner.
//
// The full experiment harness that regenerates every figure and table of
// the paper lives in cmd/figures; see the experiment index in
// internal/figures/figures.go.
package rcm
