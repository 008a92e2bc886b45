// Package clock is the one source of time in rcm/node and
// rcm/node/cluster. Two implementations stand behind Clock: Wall, the
// process's clock and runtime timers, and Virtual, the clock of a
// simulated network, which advances only as its event queue is stepped.
// Code under node/ reads the time and arms timers through a Clock and
// nowhere else, so the same node code runs on either.
package clock

import "time"

// Clock tells the time and runs a function once a delay has passed.
type Clock interface {
	// Now is the time since the clock's epoch.
	Now() time.Duration
	// AfterFunc runs f once d has passed. The returned Timer re-arms
	// (Reset) or disarms (Stop) it.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a function armed by Clock.AfterFunc. Both methods report
// whether it was still armed, as time.Timer's do.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Of returns the clock a transport runs on: a virtual network's for one
// of its endpoints, the wall clock for anything else.
func Of(transport any) Clock {
	if t, ok := transport.(interface{ Clock() Clock }); ok {
		return t.Clock()
	}
	return Wall
}

// Wall is the process's clock: the only code under node/ that reads the
// wall clock or arms a runtime timer. TestConformanceWallClock holds the
// nodes that run on it to eventsim.
var Wall wall

type wall struct{}

//lint:allow detsource the one wall clock, held to eventsim by TestConformanceWallClock
var epoch = time.Now()

func (wall) Now() time.Duration {
	return time.Since(epoch) //lint:allow detsource the one wall clock, held to eventsim by TestConformanceWallClock
}

func (wall) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f) //lint:allow detsource the one wall clock, held to eventsim by TestConformanceWallClock
}

// NewTimer is time.NewTimer, for a Client waiting on a real socket.
func (wall) NewTimer(d time.Duration) *time.Timer {
	return time.NewTimer(d) //lint:allow detsource the one wall clock, held to eventsim by TestConformanceWallClock
}
