package node

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tableRoles is the oracle's record of one request table entry.
type tableRoles struct{ fwd, wait, seen bool }

// tableModelWindow is the dedupe window of the modelled table: short, so
// evictions are frequent.
const tableModelWindow = 5

// tableModelKeys are the ids the model draws from: 0 and 2^64−1, which a
// malformed datagram can carry, twelve ids whose home slots crowd the top
// of every table up to 32 slots, so probe runs collide and wrap around,
// and a few ids shaped like real ones.
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

// runTableOps drives a reqTable and a map oracle through the operations
// ops encodes, two bytes each (operation, key), and holds the table to
// the oracle after every one: which ids have entries, each entry's roles,
// that each record belongs to its id, the window's order, the occupancy
// and the pools' counts.
func runTableOps(t testing.TB, ops []byte) {
	t.Helper()
	keys := tableModelKeys()
	tb := reqTable{window: tableModelWindow}
	oracle := make(map[uint64]tableRoles)
	var window []uint64 // the oracle's window, oldest first
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
		case 3: // set the seen role, evicting the oldest once the window is full
			if r.seen {
				break
			}
			evicted, full := tb.see(tb.entry(key))
			r.seen = true
			window = append(window, key)
			if full != (len(window) > tableModelWindow) {
				t.Fatalf("op %d: see(%#x) full=%v with %d ids in the window", n/2, key, full, len(window)-1)
			}
			if full {
				if evicted != window[0] {
					t.Fatalf("op %d: see(%#x) evicted %#x, want the oldest %#x", n/2, key, evicted, window[0])
				}
				tb.unsee(evicted)
				window = window[1:]
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
		checkTable(t, n/2, &tb, keys, oracle, window)
	}
}

func setRoles(oracle map[uint64]tableRoles, key uint64, r tableRoles) {
	if r == (tableRoles{}) {
		delete(oracle, key)
	} else {
		oracle[key] = r
	}
}

func checkTable(t testing.TB, op int, tb *reqTable, keys []uint64, oracle map[uint64]tableRoles, window []uint64) {
	t.Helper()
	fwds, waits := 0, 0
	for _, key := range keys {
		want, ok := oracle[key]
		i := tb.lookup(key)
		if i < 0 {
			if ok {
				t.Fatalf("op %d: id %#x lost; want roles %+v", op, key, want)
			}
			continue
		}
		if !ok {
			t.Fatalf("op %d: id %#x has an entry the oracle does not", op, key)
		}
		st, w := tb.fwdAt(i), tb.waitAt(i)
		if got := (tableRoles{fwd: st != nil, wait: w != nil, seen: tb.seen(i)}); got != want {
			t.Fatalf("op %d: id %#x roles %+v, want %+v", op, key, got, want)
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
	if tb.used != len(oracle) {
		t.Fatalf("op %d: %d slots used, oracle holds %d ids", op, tb.used, len(oracle))
	}
	if tb.fwds.inUse() != fwds || tb.waits.inUse() != waits {
		t.Fatalf("op %d: %d forward and %d origin records in use, want %d and %d", op, tb.fwds.inUse(), tb.waits.inUse(), fwds, waits)
	}
	if len(tb.ring) != len(window) {
		t.Fatalf("op %d: window of %d ids, want %d", op, len(tb.ring), len(window))
	}
	for j, key := range window {
		if got := tb.ring[(tb.head+j)%len(tb.ring)]; got != key {
			t.Fatalf("op %d: window position %d holds %#x, want %#x", op, j, got, key)
		}
	}
}

// TestRequestTableAgainstMap drives the request table with random
// insert, role-set, role-clear, get, delete, seen-evict and crash
// sequences and holds it to a map oracle after every operation. The ids
// include 0 and 2^64−1 and a cluster homed at the top of the table, and
// the table never outgrows 32 slots, so collisions, wrap-around and
// backward-shift deletes across the end of the array are the common
// case.
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
		runTableOps(t, ops)
	}
}
