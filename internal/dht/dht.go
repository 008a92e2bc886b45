// Package dht implements the five DHT routing protocols analyzed in the
// paper — Plaxton tree (§3.1), CAN hypercube (§3.2), Kademlia XOR (§3.3),
// Chord ring (§3.4) and Symphony small-world (§3.5) — as concrete overlay
// networks over a fully-populated d-bit identifier space.
//
// These simulators are the substrate for the Gummadi-style static-resilience
// experiments that the paper validates against (Fig. 6): routing tables are
// built once, nodes fail independently with probability q, tables stay
// static, and routing is greedy with no back-tracking (§4.1 assumption 3).
// A route fails the moment the current node has no alive neighbor that makes
// progress toward the target.
package dht

import (
	"fmt"

	"rcm/internal/registry"
	"rcm/overlay"
)

// Protocol is a DHT overlay with static routing tables: the canonical
// interface defined in internal/registry and re-exported publicly as
// rcm.Protocol. Implementations are safe for concurrent Route calls once
// constructed (tables are read-only).
type Protocol = registry.Protocol

// Populated is implemented by overlays that occupy only part of their
// identifier space (the paper's §6 "non-fully-populated" future-work
// regime). Harnesses must sample sources and targets from Nodes rather than
// from the whole space.
type Populated interface {
	// Nodes returns the participating identifiers in ascending order. The
	// returned slice must not be modified.
	Nodes() []overlay.ID
}

// Forwarder is the per-hop candidate-enumeration capability used by the
// message-level event simulator (canonical definition in internal/registry,
// re-exported publicly as rcm.Forwarder). All five built-in
// protocols implement it.
type Forwarder = registry.Forwarder

// Maintainer is the join/stabilize maintenance capability used by the
// event simulator (canonical definition in internal/registry). The four
// table-based protocols implement it; the hypercube's neighbor set is
// structural, so it has nothing to maintain.
type Maintainer = registry.Maintainer

// resampleAttempts bounds the retry loop when a Maintainer re-draws a table
// entry: a slot whose candidate set is mostly dead keeps its final draw.
const resampleAttempts = 16

// drawAliveCost retries draw() until it returns an alive identifier (a nil
// alive set disables the filter), up to resampleAttempts times, returning
// the final draw regardless together with the number of draws performed —
// the probe count that Maintainer implementations charge as messages
// (each draw models one probe/response exchange, 2 messages).
func drawAliveCost(alive *overlay.Bitset, draw func() overlay.ID) (overlay.ID, int) {
	var id overlay.ID
	attempts := 0
	for attempts < resampleAttempts {
		id = draw()
		attempts++
		if alive == nil || alive.Get(int(id)) {
			break
		}
	}
	return id, attempts
}

// probeCost converts maintenance draw attempts to modeled messages: one
// probe and one response per attempted candidate.
func probeCost(attempts int) int { return 2 * attempts }

// Config is the canonical overlay-construction configuration shared across
// the module (defined in internal/registry, re-exported publicly as
// rcm.Config).
type Config = registry.Config

// MaxSimBits caps overlay sizes: a routing table is 2^d·d entries of 4
// bytes (see table), 2^22·22·4 B at the cap — already far past the paper's
// N = 2^16.
const MaxSimBits = 22

func space(c Config) (overlay.Space, error) {
	if c.Bits < 1 || c.Bits > MaxSimBits {
		return overlay.Space{}, fmt.Errorf("dht: bits=%d out of range [1,%d]", c.Bits, MaxSimBits)
	}
	return overlay.NewSpace(c.Bits)
}

// The five paper protocols are ordinary registrants of the shared
// name-keyed registry, under the system names with the paper's geometry
// terms as aliases — mirroring the geometry registrations in internal/core.
func init() {
	for _, reg := range []struct {
		name    string
		factory registry.ProtocolFactory
		aliases []string
	}{
		{"plaxton", asProtocol(NewPlaxton), []string{"tree"}},
		{"can", asProtocol(NewHypercubeCAN), []string{"hypercube"}},
		{"kademlia", asProtocol(NewKademlia), []string{"xor"}},
		{"chord", asProtocol(NewChord), []string{"ring"}},
		{"symphony", asProtocol(NewSymphony), []string{"smallworld", "small-world"}},
		// Beyond the paper's five: the full-membership one-hop overlay,
		// registered under the same name as its geometry in internal/core.
		{"singlehop", asProtocol(NewSingleHop), []string{"onehop", "d1ht"}},
	} {
		registry.Protocols.MustRegister(reg.name, reg.factory, reg.aliases...)
	}
}

// asProtocol adapts a concrete constructor to the registry factory
// signature without letting a typed nil pointer escape into the interface.
func asProtocol[P Protocol](f func(Config) (P, error)) func(Config) (Protocol, error) {
	return func(cfg Config) (Protocol, error) {
		p, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// New constructs a protocol by name through the shared registry. Accepted
// names (case-insensitive) include both the system names and the paper's
// geometry terms — plaxton/tree, can/hypercube, kademlia/xor, chord/ring,
// symphony — plus anything registered through rcm.RegisterProtocol.
func New(name string, cfg Config) (Protocol, error) {
	f, ok := registry.Protocols.Lookup(name)
	if !ok {
		return nil, registry.Protocols.Unknown(name)
	}
	return f(cfg)
}

// ProtocolNames lists the canonical protocol names accepted by New in
// registration order: the paper's five in presentation order, then any
// user registrations.
func ProtocolNames() []string {
	return registry.Protocols.Names()
}

// hopCap bounds route lengths defensively. Every protocol here makes strict
// progress per hop, so the cap is unreachable in correct operation; it
// guards against latent bugs turning into infinite loops.
func hopCap(s overlay.Space) int {
	return int(s.Size()) + 1
}
