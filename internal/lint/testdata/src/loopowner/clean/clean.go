// Package clean exercises every sanctioned access path to loop-owned
// state: the dispatch root itself draining an inbox of packets and
// posted functions, closures handed to the rcm:loop-post helper,
// methods reachable from those, the `go`-launch of the root, and — in a
// second type — fields with no marker at all. loopowner must stay
// silent.
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
	mu    sync.Mutex
	q     []entry
	wake  chan struct{}
	state map[int]int // rcm:loop-owned
	buf   []byte      // rcm:loop-owned
}

// Start launches the dispatch — the one sanctioned non-loop call site
// of a loop-reachable method.
func (w *worker) Start() {
	go w.run()
}

// run drains the inbox; the root may touch state freely, and so may
// what it calls. rcm:event-loop
func (w *worker) run() {
	for range w.wake {
		w.mu.Lock()
		batch := w.q
		w.q = nil
		w.mu.Unlock()
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

func (w *worker) put(e entry) {
	w.mu.Lock()
	w.q = append(w.q, e)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// post schedules f on the loop. rcm:loop-post
func (w *worker) post(f func()) { w.put(entry{fn: f}) }

// Deliver queues a packet from any goroutine; it touches no state.
func (w *worker) Deliver(pkt int) { w.put(entry{pkt: pkt}) }

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
