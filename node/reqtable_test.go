package node

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tableRoles is the oracle's record of one request table entry.
type tableRoles struct{ fwd, wait, seen bool }

// tableModelWindows are the dedupe windows of the modelled table: short,
// so evictions are frequent, and of several lengths, so the ring and the
// index grow on demand (the longest to 13 ids and 32 index slots).
var tableModelWindows = []int{1, 2, 5, 13}

// tableModelKeys are the ids the model draws from: 0 and 2^64−1, which a
// malformed datagram can carry, twelve ids whose home slots crowd the top
// of every table and window index up to 32 slots, so probe runs collide
// and wrap around and ids of one run share a window tag, and a few ids
// shaped like real ones.
func tableModelKeys() []uint64 {
	keys := []uint64{0, math.MaxUint64}
	for k := uint64(1); len(keys) < 14; k++ {
		if reqHash(k)>>59 >= 28 {
			keys = append(keys, k)
		}
	}
	for k := uint64(1); len(keys) < 20; k++ {
		keys = append(keys, k<<32|k)
	}
	return keys
}

// runTableOps drives a reqTable with a dedupe window of the given length
// and a map oracle through the operations ops encodes, two bytes each
// (operation, key), and holds the table to the oracle after every one:
// which ids have entries, each entry's roles, that each record belongs
// to its id, the occupancy and the pools' counts; the window's members,
// order, length and index; and which ids the origin may take as fresh.
func runTableOps(t testing.TB, window int, ops []byte) {
	t.Helper()
	keys := tableModelKeys()
	tb := reqTable{seen: seenWindow{limit: window}}
	oracle := make(map[uint64]tableRoles)
	var seen []uint64 // the oracle's window, oldest first
	for n := 0; n+1 < len(ops); n += 2 {
		key := keys[int(ops[n+1])%len(keys)]
		r := oracle[key]
		switch op := ops[n] % 9; op {
		case 0: // get: the check below looks every id up
		case 1: // set the forward role
			if !r.fwd {
				tb.addFwd(tb.entry(key)).msg.ReqID = key
				r.fwd = true
			}
		case 2: // set the origin role
			if !r.wait {
				tb.addWait(tb.entry(key)).reqID = key
				r.wait = true
			}
		case 3: // accept into the window, evicting the oldest once it is full
			if r.seen {
				break
			}
			tb.seen.add(key)
			r.seen = true
			if seen = append(seen, key); len(seen) > window {
				evicted := seen[0]
				seen = seen[1:]
				old := oracle[evicted]
				old.seen = false
				setRoles(oracle, evicted, old)
			}
		case 4: // clear the forward role
			if r.fwd {
				tb.dropFwd(tb.lookup(key))
				r.fwd = false
			}
		case 5: // clear the origin role
			if r.wait {
				tb.dropWait(tb.lookup(key))
				r.wait = false
			}
		case 6: // delete: clear both record roles, as a concluded request does
			if r.fwd {
				tb.dropFwd(tb.lookup(key))
			}
			if r.wait {
				tb.dropWait(tb.lookup(key))
			}
			r.fwd, r.wait = false, false
		case 7: // find or insert, then release unless a role holds it: a shed request
			tb.release(tb.entry(key))
		case 8: // crash: every record role ends, origins in ascending id order
			var failed []uint64
			tb.clearRoles(func(w *originWait) { failed = append(failed, w.reqID) })
			var want []uint64
			for k, kr := range oracle {
				if kr.wait {
					want = append(want, k)
				}
				setRoles(oracle, k, tableRoles{seen: kr.seen})
			}
			slices.Sort(want)
			if !slices.Equal(failed, want) {
				t.Fatalf("op %d: clearRoles failed origins %#x, want %#x", n/2, failed, want)
			}
			r.fwd, r.wait = false, false
		}
		setRoles(oracle, key, r)
		checkTable(t, n/2, &tb, keys, oracle, seen)
	}
}

func setRoles(oracle map[uint64]tableRoles, key uint64, r tableRoles) {
	if r == (tableRoles{}) {
		delete(oracle, key)
	} else {
		oracle[key] = r
	}
}

func checkTable(t testing.TB, op int, tb *reqTable, keys []uint64, oracle map[uint64]tableRoles, seen []uint64) {
	t.Helper()
	fwds, waits, entries := 0, 0, 0
	for _, key := range keys {
		want, ok := oracle[key]
		if tb.fresh(key) == ok {
			t.Fatalf("op %d: id %#x fresh %v with roles %+v", op, key, !ok, want)
		}
		if tb.seen.has(key) != want.seen {
			t.Fatalf("op %d: id %#x in the window %v, want roles %+v", op, key, !want.seen, want)
		}
		i := tb.lookup(key)
		if i < 0 {
			if want.fwd || want.wait {
				t.Fatalf("op %d: id %#x lost; want roles %+v", op, key, want)
			}
			continue
		}
		if !want.fwd && !want.wait {
			t.Fatalf("op %d: id %#x has an entry the oracle does not", op, key)
		}
		entries++
		st, w := tb.fwdAt(i), tb.waitAt(i)
		if (st != nil) != want.fwd || (w != nil) != want.wait {
			t.Fatalf("op %d: id %#x has forward %v and origin %v, want roles %+v", op, key, st != nil, w != nil, want)
		}
		if st != nil && st.msg.ReqID != key || w != nil && w.reqID != key {
			t.Fatalf("op %d: id %#x holds another id's record", op, key)
		}
		if want.fwd {
			fwds++
		}
		if want.wait {
			waits++
		}
	}
	if tb.used != entries {
		t.Fatalf("op %d: %d slots used, %d ids have an entry", op, tb.used, entries)
	}
	if tb.fwds.inUse() != fwds || tb.waits.inUse() != waits {
		t.Fatalf("op %d: %d forward and %d origin records in use, want %d and %d", op, tb.fwds.inUse(), tb.waits.inUse(), fwds, waits)
	}
	checkWindow(t, op, &tb.seen, seen)
}

// checkWindow holds a dedupe window to want, its ids oldest first: the
// ring in arrival order from head, no longer than the window, and an
// index with one slot per ring position, tagged with the id it holds.
func checkWindow(t testing.TB, op int, w *seenWindow, want []uint64) {
	t.Helper()
	if len(w.ring) != len(want) || len(want) > w.limit {
		t.Fatalf("op %d: window of %d ids (limit %d), want %d", op, len(w.ring), w.limit, len(want))
	}
	for j, key := range want {
		if got := w.ring[(w.head+j)%len(w.ring)]; got != key {
			t.Fatalf("op %d: window position %d holds %#x, want %#x", op, j, got, key)
		}
		if !w.has(key) {
			t.Fatalf("op %d: window id %#x not found", op, key)
		}
	}
	indexed := make([]bool, len(w.ring))
	for i, s := range w.index {
		if s == 0 {
			continue
		}
		pos := int(s&seenPosMask) - 1
		if pos >= len(w.ring) || indexed[pos] {
			t.Fatalf("op %d: index slot %d names ring position %d of %d twice or out of range", op, i, pos, len(w.ring))
		}
		indexed[pos] = true
		if s&^seenPosMask != seenTag(reqHash(w.ring[pos])) {
			t.Fatalf("op %d: index slot %d tags ring position %d with %#x, not its id's tag", op, i, pos, s>>seenPosBits)
		}
	}
	for pos, ok := range indexed {
		if !ok {
			t.Fatalf("op %d: ring position %d (%#x) has no index slot", op, pos, w.ring[pos])
		}
	}
}

// TestRequestTableAgainstMap drives the request table and its dedupe
// window with random insert, role-set, role-clear, get, delete,
// window-accept and crash sequences and holds them to a map oracle after
// every operation. The ids include 0 and 2^64−1 and a cluster homed at
// the top of the table and of the window's index, neither of which
// outgrows 32 slots, and windows of 1 to 13 ids grow from empty, so
// collisions, shared tags, wrap-around, growth and backward-shift
// deletes across the end of either array are the common case.
func TestRequestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		if round%2 == 1 {
			for i := 0; i < len(ops); i += 2 {
				ops[i] %= 8 // no crash: let the table fill
			}
		}
		runTableOps(t, tableModelWindows[round/2%len(tableModelWindows)], ops)
	}
}
