package dht

import "rcm/overlay"

// table is the one routing-table representation of this package: rows of
// width entries, row k at cells[k*width : (k+1)*width], one row per node
// (indexed by identifier on a full population, by population rank on a
// sparse one). Entries are identifiers narrowed to uint32, which MaxSimBits
// guarantees they fit; nothing on a routing path re-checks it.
//
// The invariant forwarding is derived from. Chord and Kademlia do not scan
// their rows: they compute the next hop from the position of an entry, and
// that is only right while every writer — constructor, Join, Stabilize —
// keeps each entry in its structural window:
//
//   - Chord, finger i of x (row[i−1]):            RingDist(x, f) ∈ [2^{i−1}, 2^i)
//   - Kademlia and Plaxton, contact i of x (row[i−1]): FirstDifferingBit(x, c) == i
//
// A Maintainer that draws outside the window silently breaks Route and
// AppendCandidateHops; TestTableInvariant and the forwarder oracle tests
// are what catch it.
type table struct {
	cells []uint32
	width int
}

// Identifiers must fit a table entry.
const _ = uint(32 - MaxSimBits)

func newTable(rows, width int) table {
	return table{cells: make([]uint32, rows*width), width: width}
}

// row returns row k for reading or in-place maintenance.
func (t table) row(k int) []uint32 {
	return t.cells[k*t.width : (k+1)*t.width]
}

// neighbors returns a copy of row k as identifiers (Protocol.Neighbors).
func (t table) neighbors(k int) []overlay.ID {
	row := t.row(k)
	out := make([]overlay.ID, len(row))
	for i, id := range row {
		out[i] = overlay.ID(id)
	}
	return out
}

// newPrefixTable builds the prefix-corrected table Kademlia and Plaxton
// share: entry i of node x flips bit i of x and randomizes everything to
// its right — a uniform choice among the 2^{d−i} candidates of that level.
func newPrefixTable(s overlay.Space, rng *overlay.RNG) table {
	t := newTable(int(s.Size()), s.Bits())
	for x := overlay.ID(0); uint64(x) < s.Size(); x++ {
		row := t.row(int(x))
		for i := range row {
			row[i] = uint32(s.RandomTail(s.FlipBit(x, i+1), i+1, rng))
		}
	}
	return t
}

// prefixRefresh re-draws entry i of node x in a prefix-corrected table,
// preferring alive candidates, and returns the modeled message cost.
func prefixRefresh(s overlay.Space, t table, x overlay.ID, i int, alive *overlay.Bitset, rng *overlay.RNG) int {
	id, attempts := drawAliveCost(alive, func() overlay.ID {
		return s.RandomTail(s.FlipBit(x, i), i, rng)
	})
	t.row(int(x))[i-1] = uint32(id)
	return probeCost(attempts)
}

// prefixJoin is the full-table prefixRefresh: the Maintainer.Join body
// shared by Kademlia and Plaxton.
func prefixJoin(s overlay.Space, t table, x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	cost := 0
	for i := 1; i <= s.Bits(); i++ {
		cost += prefixRefresh(s, t, x, i, alive, rng)
	}
	return cost
}

// greedyRingHop is the hop choice of every ring overlay that scans its row
// (Symphony, ChordWithSuccessors, SparseChord): the alive entry that lands
// closest to dst clockwise, the first such entry on a tie, and ok false
// when none lands strictly closer than cur. Strict improvement is the
// no-overshoot rule — an entry past dst, or cur itself, is at least as far
// from dst as cur is — so there is no separate overshoot test.
func greedyRingHop(s overlay.Space, row []uint32, cur, dst overlay.ID, alive *overlay.Bitset) (best overlay.ID, ok bool) {
	bestRemaining := s.RingDist(cur, dst)
	for _, e := range row {
		f := overlay.ID(e)
		if nr := s.RingDist(f, dst); nr < bestRemaining && alive.Get(int(f)) {
			bestRemaining, best, ok = nr, f, true
		}
	}
	return best, ok
}
