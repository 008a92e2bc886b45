// Package replica is the k-replica key-placement capability: given a
// key's root owner, it enumerates the k distinct identifiers responsible
// for a copy. It is the placement vocabulary shared by every executor —
// rcm/eventsim resolves lookup targets through it, rcm/node and
// rcm/node/cluster place and fetch live copies through it — so the
// simulated and live layers agree on ownership by construction.
//
// Placement is protocol-opt-in through the Replicator capability,
// mirroring how rcm.Forwarder and rcm.Maintainer extend rcm.Protocol:
// a protocol that implements AppendReplicaSet chooses its own replica
// geometry (Kademlia uses XOR-adjacent identifiers), and every other
// protocol gets the classic ring-successor placement. The interface is
// structural, so protocol packages implement it without importing this
// one.
//
// Determinism contract: placement is a pure function of (space, root, k).
// No randomness, no clocks, no dependence on which nodes are currently
// alive — liveness-driven *selection* among the replicas is the
// executor's job (eventsim masks the set against its failure snapshot,
// live nodes fail over in placement order).
package replica

import (
	"fmt"

	"rcm/overlay"
)

// MaxReplicas bounds k. Eight copies is already far past the robustness
// knee for the population sizes the framework simulates, and the bound
// lets executors carry per-lookup replica state in a byte.
const MaxReplicas = 8

// Replicator is the optional protocol capability: append the identifiers
// owning a copy of the key rooted at root, best (root) first.
// Implementations must return min(k, space size) distinct identifiers
// with the root itself first, and must be pure: no RNG, no liveness
// input, no writes to shared state.
type Replicator interface {
	AppendReplicaSet(buf []overlay.ID, root overlay.ID, k int) []overlay.ID
}

// ValidateK rejects replication factors outside [0, MaxReplicas]. Both 0
// and 1 mean "no replication" (a single root copy): 0 is the unset zero
// value, 1 is the explicit spelling.
func ValidateK(k int) error {
	if k < 0 || k > MaxReplicas {
		return fmt.Errorf("replica: replication factor %d outside [0, %d]", k, MaxReplicas)
	}
	return nil
}

// Successors is the default placement: the root and its k−1 clockwise
// ring successors — consistent-hashing's classic replica set, meaningful
// in every identifier space because it only needs addition mod 2^bits.
func Successors(space overlay.Space, buf []overlay.ID, root overlay.ID, k int) []overlay.ID {
	n := clampK(space, k)
	mask := space.Size() - 1
	for i := 0; i < n; i++ {
		buf = append(buf, overlay.ID((uint64(root)+uint64(i))&mask))
	}
	return buf
}

// For resolves the replica set for a protocol: the protocol's own
// Replicator placement when it implements the capability, ring-successor
// placement otherwise. The result is validated against the capability
// contract (right count, distinct, root first) so a buggy opt-in fails
// loudly at the call site instead of silently mis-placing copies.
func For(p any, space overlay.Space, buf []overlay.ID, root overlay.ID, k int) ([]overlay.ID, error) {
	r, ok := p.(Replicator)
	if !ok {
		return Successors(space, buf, root, k), nil
	}
	base := len(buf)
	buf = r.AppendReplicaSet(buf, root, k)
	set := buf[base:]
	if want := clampK(space, k); len(set) != want {
		return nil, fmt.Errorf("replica: %T returned %d owners for k=%d in a %d-bit space, want %d",
			p, len(set), k, space.Bits(), want)
	}
	if len(set) > 0 && set[0] != root {
		return nil, fmt.Errorf("replica: %T placed %d first, want the root %d", p, set[0], root)
	}
	for i, id := range set {
		if !space.Contains(id) {
			return nil, fmt.Errorf("replica: %T owner %d outside the %d-bit space", p, id, space.Bits())
		}
		for _, prev := range set[:i] {
			if prev == id {
				return nil, fmt.Errorf("replica: %T placed %d twice", p, id)
			}
		}
	}
	return buf, nil
}

// Table resolves the replica set of every root in the space into one
// placement table, table[root*k+i] being the i-th owner of root's key,
// and returns it with its effective factor k (the requested one clamped
// to the space size). Every executor places replicas through it, so sim
// and live agree on ownership by construction. A requested k <= 1 yields
// an empty table and k = 1: the unreplicated path never reads it.
func Table(p any, space overlay.Space, k int) ([]overlay.ID, int, error) {
	if k <= 1 {
		return nil, 1, nil
	}
	n := space.Size()
	table := make([]overlay.ID, 0, n*uint64(clampK(space, k)))
	for root := uint64(0); root < n; root++ {
		var err error
		if table, err = For(p, space, table, overlay.ID(root), k); err != nil {
			return nil, 0, err
		}
	}
	return table, len(table) / int(n), nil
}

// clampK folds the "no replication" spellings to one copy and caps k at
// the space size (a 1-bit space cannot hold 3 distinct owners).
func clampK(space overlay.Space, k int) int {
	if k < 1 {
		k = 1
	}
	if n := space.Size(); uint64(k) > n {
		k = int(n)
	}
	return k
}
