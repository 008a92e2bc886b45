package clock

import (
	"sync"
	"time"
)

// Virtual is the clock of a simulated network and its one event queue:
// every datagram in flight, posted function, timer and held re-send of
// the network is an entry, and the time is the deadline of the last
// entry run. Nothing runs by itself: Run steps the entries one at a
// time, on the goroutine of whichever caller is waiting for a result,
// and a second caller waits its turn. With one caller at a time a run
// is a function of what the callers did, in the order they did it. The
// zero Virtual starts at time 0.
type Virtual struct {
	step sync.Mutex // held by the goroutine stepping the network
	mu   sync.Mutex // guards now and q
	now  time.Duration
	q    Queue[*event]
}

// event is one entry of a Virtual's queue.
type event struct {
	v *Virtual
	h Handle
	f func()
}

// Now is the deadline of the last entry run.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc queues f to run as one step, d from now.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	e := &event{v: v, f: f}
	e.Reset(d)
	return e
}

func (e *event) Reset(d time.Duration) bool {
	e.v.mu.Lock()
	defer e.v.mu.Unlock()
	queued := e.h.Queued()
	e.v.q.Arm(&e.h, e, e.v.now+max(d, 0))
	return queued
}

func (e *event) Stop() bool {
	e.v.mu.Lock()
	defer e.v.mu.Unlock()
	queued := e.h.Queued()
	e.v.q.Stop(&e.h)
	return queued
}

// Run steps the network, earliest entry first, until done reports true.
// It reports false if the queue ran dry first.
func (v *Virtual) Run(done func() bool) bool {
	v.step.Lock()
	defer v.step.Unlock()
	for !done() {
		v.mu.Lock()
		at, e, ok := v.q.Pop()
		if ok {
			v.now = at
		}
		v.mu.Unlock()
		if !ok {
			return false
		}
		e.f()
	}
	return true
}
