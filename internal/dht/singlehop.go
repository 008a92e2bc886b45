package dht

import (
	"fmt"

	"rcm/overlay"
)

// SingleHop is the full-membership one-hop overlay (the D1HT family from
// Monnerat & Amorim, retrieved in PAPERS.md): every node's routing table
// is the complete membership view, so a lookup either reaches its target
// in a single hop or fails outright — there is no multi-hop detour to
// route around stale knowledge. The interesting behavior is therefore
// entirely in the *view dynamics*: a join rebuilds the joiner's whole
// O(N) view, a stabilization round sweeps an N/32 slice of it, and a
// lookup toward a node that rejoined since the source's sweep last passed
// it fails even though the target is alive. That stale-view failure mode
// is exactly where the O(1)-lookup claim breaks down under heavy-tailed
// churn (long downtimes age everyone's views), and it is what figure E20
// tabulates against the O(N) maintenance bill.
//
// Views start complete (the static-resilience precondition: a perfect
// topology), so under the static model SingleHop routes any alive pair —
// the latency-optimal corner of the latency-vs-maintenance frontier.
type SingleHop struct {
	space overlay.Space
	// view[x] is node x's membership row: bit y set means x believes y is
	// a live member. The Maintainer contract confines writes to row x, so
	// distinct nodes maintain concurrently without sharing rows.
	view []*overlay.Bitset
	// sweep[x] is x's stabilization cursor: the next identifier its
	// periodic round will re-probe. Owned by row x like the view.
	sweep []uint32
}

var (
	_ Protocol   = (*SingleHop)(nil)
	_ Forwarder  = (*SingleHop)(nil)
	_ Maintainer = (*SingleHop)(nil)
)

// MaxSingleHopBits caps the one-hop overlay: membership views are O(N²)
// bits total, so d=14 (32 MB of view) is the ceiling — far past the
// population sizes where a full-membership DHT is deployable anyway.
const MaxSingleHopBits = 14

// sweepFraction divides the population into per-round stabilization
// batches: each round re-probes ceil(N/sweepFraction) slots, so a full
// view refresh takes sweepFraction rounds — the staleness window that
// churn races against.
const sweepFraction = 32

// NewSingleHop builds the overlay with complete membership views.
func NewSingleHop(cfg Config) (*SingleHop, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	if s.Bits() > MaxSingleHopBits {
		return nil, fmt.Errorf("dht: singlehop bits=%d out of range [1,%d]: full membership views are O(N²) bits", s.Bits(), MaxSingleHopBits)
	}
	n := int(s.Size())
	view := make([]*overlay.Bitset, n)
	for x := range view {
		row := overlay.NewBitset(n)
		row.SetAll()
		view[x] = row
	}
	return &SingleHop{space: s, view: view, sweep: make([]uint32, n)}, nil
}

// Name implements Protocol.
func (p *SingleHop) Name() string { return "singlehop" }

// Space implements Protocol.
func (p *SingleHop) Space() overlay.Space { return p.space }

// Route implements Protocol: one hop to dst when the source's view still
// lists it and it is alive; otherwise the route fails immediately —
// full-table routing has no intermediate node to detour through.
func (p *SingleHop) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	if src == dst {
		return 0, true
	}
	if p.view[src].Get(int(dst)) && alive.Get(int(dst)) {
		return 1, true
	}
	return 0, false
}

// AppendCandidateHops implements Forwarder: the only identifier that makes
// progress toward dst in a one-hop metric is dst itself, and only while
// the holder's view lists it. The first (and only) alive candidate is
// exactly Route's hop, per the Forwarder contract.
func (p *SingleHop) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	if x == dst || !p.view[x].Get(int(dst)) {
		return buf
	}
	return append(buf, dst)
}

// Join implements Maintainer: a (re)joining node downloads the current
// membership into its view — one request plus one record per peer, the
// O(N) transfer that makes one-hop DHTs maintenance-bound. Writes touch
// only row x.
func (p *SingleHop) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	row := p.view[int(x)]
	n := int(p.space.Size())
	for y := 0; y < n; y++ {
		if alive == nil || alive.Get(y) {
			row.Set(y)
		} else {
			row.Clear(y)
		}
	}
	p.sweep[int(x)] = 0
	return 2 + n
}

// Stabilize implements Maintainer: one periodic round re-probes the next
// ceil(N/32) identifiers after x's sweep cursor, correcting the view
// against the current membership at two messages (probe + reply) per
// slot. Cost scales with N — the bandwidth half of the one-hop bargain.
func (p *SingleHop) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	n := int(p.space.Size())
	batch := (n + sweepFraction - 1) / sweepFraction
	row := p.view[int(x)]
	cur := int(p.sweep[int(x)])
	for i := 0; i < batch; i++ {
		y := (cur + i) % n
		if alive == nil || alive.Get(y) {
			row.Set(y)
		} else {
			row.Clear(y)
		}
	}
	p.sweep[int(x)] = uint32((cur + batch) % n)
	return probeCost(batch)
}

// Neighbors implements Protocol: every peer the view currently lists.
func (p *SingleHop) Neighbors(x overlay.ID) []overlay.ID {
	row := p.view[int(x)]
	n := int(p.space.Size())
	out := make([]overlay.ID, 0, n-1)
	for y := 0; y < n; y++ {
		if y != int(x) && row.Get(y) {
			out = append(out, overlay.ID(y))
		}
	}
	return out
}
