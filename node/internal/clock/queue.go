package clock

import "time"

// Handle locates an entry of a Queue, so moving or cancelling it is one
// sift rather than a search. The zero Handle is not queued.
type Handle struct{ pos int } // heap index + 1; 0 while not queued

// Queued reports whether the entry is in a queue.
func (h *Handle) Queued() bool { return h.pos != 0 }

// Queue is an index-tracked 4-ary min-heap of deadlines: the timer queue
// of one node's loop, and the event queue of a virtual network. Entries
// leave in (deadline, arming order), so equal deadlines leave
// first-armed first and the order is a function of what was armed when.
// The zero Queue is empty and ready.
type Queue[E any] struct {
	slots []slot[E]
	armed uint64 // armings so far: the tie-break of equal deadlines
}

type slot[E any] struct {
	at  time.Duration
	seq uint64
	h   *Handle
	e   E
}

// Len is the number of queued entries.
func (q *Queue[E]) Len() int { return len(q.slots) }

// Next returns the earliest deadline, if any entry is queued.
func (q *Queue[E]) Next() (time.Duration, bool) {
	if len(q.slots) == 0 {
		return 0, false
	}
	return q.slots[0].at, true
}

// Arm queues e, located by h, for deadline at. An entry already queued
// moves there and orders among equal deadlines as if armed now.
func (q *Queue[E]) Arm(h *Handle, e E, at time.Duration) {
	q.armed++
	s := slot[E]{at: at, seq: q.armed, h: h, e: e}
	if h.pos == 0 {
		q.slots = append(q.slots, s)
		h.pos = len(q.slots)
		q.up(len(q.slots) - 1)
		return
	}
	i := h.pos - 1
	q.slots[i] = s
	q.fix(i)
}

// Stop removes h's entry, if it is queued.
func (q *Queue[E]) Stop(h *Handle) {
	if h.pos != 0 {
		q.removeAt(h.pos - 1)
	}
}

// Pop removes and returns the entry with the earliest deadline.
func (q *Queue[E]) Pop() (at time.Duration, e E, ok bool) {
	if len(q.slots) == 0 {
		return 0, e, false
	}
	s := q.slots[0]
	q.removeAt(0)
	return s.at, s.e, true
}

// Clear removes every entry.
func (q *Queue[E]) Clear() {
	for i := range q.slots {
		q.slots[i].h.pos = 0
	}
	clear(q.slots)
	q.slots = q.slots[:0]
}

func (q *Queue[E]) removeAt(i int) {
	last := len(q.slots) - 1
	q.slots[i].h.pos = 0
	if i != last {
		q.slots[i] = q.slots[last]
		q.slots[i].h.pos = i + 1
	}
	q.slots[last] = slot[E]{} // keep no entry alive through the spare capacity
	q.slots = q.slots[:last]
	if i != last {
		q.fix(i)
	}
}

func (q *Queue[E]) less(i, j int) bool {
	a, b := &q.slots[i], &q.slots[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *Queue[E]) swap(i, j int) {
	q.slots[i], q.slots[j] = q.slots[j], q.slots[i]
	q.slots[i].h.pos = i + 1
	q.slots[j].h.pos = j + 1
}

// fix restores the heap order around slot i after its deadline changed.
func (q *Queue[E]) fix(i int) {
	if q.up(i) == i {
		q.down(i)
	}
}

func (q *Queue[E]) up(i int) int {
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q.swap(i, p)
		i = p
	}
	return i
}

func (q *Queue[E]) down(i int) {
	n := len(q.slots)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		m := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q.less(c, m) {
				m = c
			}
		}
		if !q.less(m, i) {
			return
		}
		q.swap(i, m)
		i = m
	}
}
