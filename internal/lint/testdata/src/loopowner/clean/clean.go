// Package clean exercises every sanctioned access path to loop-owned
// state: the drain root itself running an inbox of packets and posted
// functions, closures handed to the rcm:loop-post helper, methods
// reachable from those, the drain's calls by rcm:loop-claim functions
// that the inbox handed the runner role, and — in a second type — fields
// with no marker at all. loopowner must stay silent.
package clean

import (
	"sync"
	"time"
)

// entry is a packet for the loop to handle, or a posted function.
type entry struct {
	pkt int
	fn  func()
}

type worker struct {
	mu      sync.Mutex
	q       []entry
	running bool
	state   map[int]int // rcm:loop-owned
	buf     []byte      // rcm:loop-owned
}

// run drains the inbox while its caller holds the role; the root may
// touch state freely, and so may what it calls. rcm:event-loop
func (w *worker) run() {
	for {
		w.mu.Lock()
		batch := w.q
		w.q = nil
		if len(batch) == 0 {
			w.running = false
		}
		w.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, e := range batch {
			if e.fn != nil {
				e.fn()
			} else {
				w.handle(e.pkt)
			}
		}
	}
	w.state = nil
}

// put queues e, reporting whether the caller claimed the runner role.
func (w *worker) put(e entry) (claimed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.q = append(w.q, e)
	if w.running {
		return false
	}
	w.running = true
	return true
}

// post schedules f on the loop, running it if the put claimed the role.
// rcm:loop-post rcm:loop-claim
func (w *worker) post(f func()) {
	if w.put(entry{fn: f}) {
		w.run()
	}
}

// Deliver queues a packet from any goroutine and drains if it claimed
// the role; it touches no state itself. rcm:loop-claim
func (w *worker) Deliver(pkt int) {
	if w.put(entry{pkt: pkt}) {
		w.run()
	}
}

// Set posts a closure through the helper — the canonical entry point.
func (w *worker) Set(k, v int) {
	w.post(func() { w.state[k] = v })
}

// handle is loop-reachable (called from the root and from posted
// closures only).
func (w *worker) handle(k int) {
	w.state[k]++
	w.buf = append(w.buf[:0], byte(k))
}

// Timers may fire off-loop as long as they post back in.
func (w *worker) armed(k int) {
	time.AfterFunc(time.Second, func() {
		w.post(func() { w.handle(k) })
	})
}

// plain has no markers: unannotated fields stay unrestricted.
type plain struct {
	hits int
}

func (p *plain) Touch() { p.hits++ }
