// Package lint is rcmlint: a static-analysis suite, built on the
// standard library's go/ast and go/types, that enforces the invariants
// the runtime conformance suites can only sample. The simulator's
// headline guarantee — a fixed spec and seed reproduce every figure
// bit-for-bit — and the live node's single-writer concurrency model are
// whole-program properties; one stray wall-clock read or off-loop state
// write silently voids them. These analyzers make the contracts
// machine-checked at the source level, in CI and in `make lint`.
//
// # Analyzers
//
// detsource guards the bit-identity contract. In determinism-critical
// packages (the event engine, overlay, spec, experiments and the
// internal model layers — see DetPackages) it forbids the ambient
// entropy sources: time.Now and friends, the process-global math/rand
// source, os.Getenv-driven behavior, and map iteration feeding an
// ordered sink (channel sends, writers/encoders, or appends that are
// never sorted afterwards). Map iteration that collects keys and sorts
// them before use is the sanctioned idiom and passes.
//
// loopowner guards the node's ownership discipline. Struct fields
// marked `// rcm:loop-owned` may be touched only by code reachable from
// the event-loop dispatch: the function marked `rcm:event-loop` (the
// node's inbox drain) and closures handed to a `rcm:loop-post` helper.
// Goroutine bodies, timer callbacks and exported entry points must
// instead post a closure into the loop. The
// analyzer also flags laundering — calling a loop-only helper from
// outside the loop.
//
// registrydiscipline guards reproducibility of construction: Register*
// calls must complete during package initialization (init functions,
// package-level var initializers, or Register*-named wrappers thereof),
// so the geometry/protocol registries are complete and identical before
// main starts, independent of runtime control flow.
//
// boundary guards the layer contract (see BoundaryRules): the public
// surface (node, examples, cmd/rcmd) never imports rcm/internal;
// internal model layers never import the event engine or overlay back;
// spec and overlay stay leaf-like. This replaces the shell-grep check
// that previously policed the public API surface.
//
// # Suppression
//
// A finding is silenced by a justified marker on the offending line or
// the line directly above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory and the analyzer name must exist; malformed
// markers suppress nothing and are reported as findings of the
// pseudo-analyzer "lint". Suppressions are deliberately per-line and
// per-analyzer so an allowance cannot quietly widen.
//
// # Engine
//
// Load shells out to `go list -json` for package metadata and
// type-checks the module with go/types, resolving in-module imports
// from source and the standard library through go/importer. Run applies
// each analyzer to each package, filters suppressed findings, and
// returns the rest ordered by position. The suite carries its own
// golden corpus under testdata/src (driven by analyzers_test.go), and
// TestRepoClean holds the whole module to zero findings.
package lint
