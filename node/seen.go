package node

import "math/bits"

// seenWindow is a node's dedupe window: exactly the last limit request
// ids it accepted, evicted in arrival order. The ids sit once, in a ring
// in arrival order; an open-addressed index of 2-byte slots finds an id's
// ring position. A slot holds 1 + the position in its low seenPosBits
// bits (0 is an empty slot) and a few bits of the id's hash above them,
// so a probe reads the ring only when those tag bits match.
//
// The index is homed by the same Fibonacci hash as the request table,
// with linear probing and backward-shift deletion: eviction deletes the
// index slot of the oldest position before the new id takes it over, so
// no tombstones build up under the window's steady churn. Ring and index
// grow on demand, the index doubling past ¾ load, so a node that sees
// few requests keeps a small window; a full window of 4096 ids costs
// 32 KiB of ring and 16 KiB of index.
type seenWindow struct {
	limit int      // window length (seenCap on a node)
	ring  []uint64 // ids in arrival order; a ring once limit long
	head  int      // the oldest ring position once the ring is full
	index []uint16 // nil until the first id
	shift uint     // 64 - log2(len(index)): an id's home slot is the top bits of its hash
}

// seenPosBits holds 1 + a ring position; the rest of an index slot is the
// hash tag.
const (
	seenPosBits = 13
	seenPosMask = 1<<seenPosBits - 1
)

// seenCap's positions fit an index slot: the constant below underflows,
// and the package does not build, if they do not.
const _ = uint(seenPosMask - seenCap)

// minSeenSlots is the index's capacity, and the ring's up to limit, once
// the window holds an id.
const minSeenSlots = 8

// seenTag is the tag of an id with hash h: its bits 45–47, below the
// top 14 bits that home it in the largest index a window of 8191 ids
// needs.
func seenTag(h uint64) uint16 { return uint16(h>>32) >> seenPosBits << seenPosBits }

func (w *seenWindow) home(h uint64) int { return int(h >> w.shift) }

// has reports whether id is in the window.
func (w *seenWindow) has(id uint64) bool {
	if len(w.ring) == 0 {
		return false
	}
	h := reqHash(id)
	tag, mask := seenTag(h), len(w.index)-1
	for i := w.home(h); ; i = (i + 1) & mask {
		s := w.index[i]
		if s == 0 {
			return false
		}
		if s&^seenPosMask == tag && w.ring[s&seenPosMask-1] == id {
			return true
		}
	}
}

// add puts id, which is not in it, into the window; once the window is
// full the oldest id leaves it.
func (w *seenWindow) add(id uint64) {
	pos := w.head
	if n := len(w.ring); n < w.limit {
		if (n+1)*4 > len(w.index)*3 {
			w.resize(max(minSeenSlots, 2*len(w.index)))
		}
		if n == cap(w.ring) {
			ring := make([]uint64, n, min(max(minSeenSlots, 2*n), w.limit))
			copy(ring, w.ring)
			w.ring = ring
		}
		w.ring, pos = append(w.ring, id), n
	} else {
		w.remove(pos)
		w.ring[pos] = id
		w.head = (pos + 1) % w.limit
	}
	w.insert(id, pos)
}

// insert indexes ring position pos, which holds id.
func (w *seenWindow) insert(id uint64, pos int) {
	h := reqHash(id)
	mask := len(w.index) - 1
	i := w.home(h)
	for w.index[i] != 0 {
		i = (i + 1) & mask
	}
	w.index[i] = seenTag(h) | uint16(pos+1)
}

// remove deletes the index slot of ring position pos, shifting the rest
// of its probe run back so every id stays reachable from its home.
func (w *seenWindow) remove(pos int) {
	mask := len(w.index) - 1
	i := w.home(reqHash(w.ring[pos]))
	for int(w.index[i]&seenPosMask) != pos+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.index[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-w.home(reqHash(w.ring[w.index[j]&seenPosMask-1])))&mask >= (j-i)&mask {
			w.index[i] = w.index[j]
			i = j
		}
	}
	w.index[i] = 0
}

// resize reindexes the ring into n slots.
func (w *seenWindow) resize(n int) {
	w.index = make([]uint16, n)
	w.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for pos, id := range w.ring {
		w.insert(id, pos)
	}
}
