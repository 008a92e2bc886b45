package node

import (
	"cmp"
	"math/bits"
	"slices"
)

// reqTable is what a node knows about requests: one entry per request id
// it holds a record for — a forward attempt awaiting its hop
// acknowledgement, a locally-originated request awaiting its verdict, or
// both — and, beside the entries, the dedupe window of the ids it
// accepted (seenWindow). An entry is freed when its last role ends, so
// the slots hold only the requests in flight. Both roles are records
// from pools that recycle them, so a request in steady state allocates
// none.
//
// The slots are open-addressed by Fibonacci hashing of the id with linear
// probing and backward-shift deletion, so no tombstones build up as
// requests come and go. A slot with no role is empty: no key value is
// reserved, since any 64-bit id can arrive in a datagram. The capacity is
// a power of two that starts at minReqSlots and doubles past ¾ load; the
// 16-byte slots hold no pointers, so the collector skips them.
//
// Slot indexes are valid until the next call that inserts or frees an
// entry: entry, release, dropFwd, dropWait and clearRoles.
type reqTable struct {
	slots []reqSlot // nil until the first entry
	shift uint      // 64 - log2(len(slots)): an id's home slot is the top bits of its hash
	used  int       // slots holding an entry

	fwds  pool[pendingFwd]
	waits pool[originWait]

	seen seenWindow
}

// reqSlot is one slot of a reqTable. A role is 1 + the record's index in
// its pool; 0 if none.
type reqSlot struct {
	key       uint64
	fwd, wait uint32
}

func (s *reqSlot) empty() bool { return s.fwd|s.wait == 0 }

// minReqSlots is a table's capacity once it holds an entry.
const minReqSlots = 8

// reqHash spreads a request id over 64 bits; a table of 2^b slots homes
// the id at the top b bits.
func reqHash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

func (t *reqTable) home(key uint64) int { return int(reqHash(key) >> t.shift) }

// lookup returns the slot of key's entry, or -1.
func (t *reqTable) lookup(key uint64) int {
	if t.used == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.empty() {
			return -1
		} else if s.key == key {
			return i
		}
	}
}

// entry returns the slot of key's entry, inserting one with no role if
// there is none. The caller gives a new entry a role, or releases it,
// before any other call on the table.
func (t *reqTable) entry(key uint64) int {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.resize(max(minReqSlots, 2*len(t.slots)))
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.empty() {
			s.key = key
			t.used++
			return i
		}
		if s.key == key {
			return i
		}
	}
}

// release frees slot i's entry if it has no role left, shifting the rest
// of its probe run back so every entry stays reachable from its home.
func (t *reqTable) release(i int) {
	if !t.slots[i].empty() {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; !t.slots[j].empty(); j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = reqSlot{}
	t.used--
}

// resize rehashes every entry into n slots.
func (t *reqTable) resize(n int) {
	old := t.slots
	t.slots = make([]reqSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.used = 0
	mask := n - 1
	for _, s := range old {
		if s.empty() {
			continue
		}
		i := t.home(s.key)
		for !t.slots[i].empty() {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.used++
	}
}

// fwdAt returns the forward record of slot i's entry, or nil.
func (t *reqTable) fwdAt(i int) *pendingFwd {
	if f := t.slots[i].fwd; f != 0 {
		return t.fwds.recs[f-1]
	}
	return nil
}

// addFwd gives slot i's entry, which has none, the forward role: a record
// from the pool, with its candidate slice emptied but not shrunk.
func (t *reqTable) addFwd(i int) *pendingFwd {
	id, st := t.fwds.get()
	st.id = id
	t.slots[i].fwd = id + 1
	return st
}

// dropFwd ends slot i's forward role and recycles its record, whose RTO
// the caller has stopped or popped.
func (t *reqTable) dropFwd(i int) {
	t.recycleFwd(t.slots[i].fwd)
	t.slots[i].fwd = 0
	t.release(i)
}

// recycleFwd returns forward record f-1 to the pool, keeping its
// candidate slice's capacity.
func (t *reqTable) recycleFwd(f uint32) {
	st := t.fwds.recs[f-1]
	*st = pendingFwd{id: st.id, cands: st.cands[:0]}
	t.fwds.put(st.id)
}

// waitAt returns the origin record of slot i's entry, or nil.
func (t *reqTable) waitAt(i int) *originWait {
	if w := t.slots[i].wait; w != 0 {
		return t.waits.recs[w-1]
	}
	return nil
}

// addWait gives slot i's entry, which has none, the origin role.
func (t *reqTable) addWait(i int) *originWait {
	id, w := t.waits.get()
	w.id = id
	t.slots[i].wait = id + 1
	return w
}

// dropWait ends slot i's origin role and recycles its record, whose guard
// the caller has stopped or popped.
func (t *reqTable) dropWait(i int) {
	t.recycleWait(t.slots[i].wait)
	t.slots[i].wait = 0
	t.release(i)
}

// recycleWait returns origin record w-1 to the pool.
func (t *reqTable) recycleWait(w uint32) {
	rec := t.waits.recs[w-1]
	*rec = originWait{id: rec.id}
	t.waits.put(rec.id)
}

// fresh reports whether id is free for a request this node originates:
// no entry and not in the dedupe window, so an entry's roles and a
// window's id always belong to one request.
func (t *reqTable) fresh(id uint64) bool { return t.lookup(id) < 0 && !t.seen.has(id) }

// clearRoles ends every forward and origin role, as a crash does, and
// recycles the records; fail sees each origin record first, in ascending
// request-id order. Every entry is freed; the dedupe window stays.
func (t *reqTable) clearRoles(fail func(*originWait)) {
	var waits []int
	for i := range t.slots {
		s := &t.slots[i]
		if s.fwd != 0 {
			t.recycleFwd(s.fwd)
		}
		if s.wait != 0 {
			waits = append(waits, i)
		}
	}
	slices.SortFunc(waits, func(a, b int) int { return cmp.Compare(t.slots[a].key, t.slots[b].key) })
	for _, i := range waits {
		fail(t.waitAt(i))
		t.recycleWait(t.slots[i].wait)
	}
	clear(t.slots)
	t.used = 0
}

// pool recycles the records of one role: recs[i] is record i, allocated
// once and reused ever after, so its address — where the timer queue
// finds its handle — never changes; free holds the indexes not in use.
type pool[R any] struct {
	recs []*R
	free []uint32
}

func (p *pool[R]) get() (uint32, *R) {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i, p.recs[i]
	}
	r := new(R)
	p.recs = append(p.recs, r)
	return uint32(len(p.recs) - 1), r
}

func (p *pool[R]) put(i uint32) { p.free = append(p.free, i) }

// inUse is the number of records not on the free list.
func (p *pool[R]) inUse() int { return len(p.recs) - len(p.free) }
