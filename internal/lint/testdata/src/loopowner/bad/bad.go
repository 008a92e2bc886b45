// Package bad seeds every ownership violation loopowner must catch:
// direct reads from exported entry points, writes from timer callbacks
// and goroutines, laundering loop-state access through a method call
// from the wrong goroutine, and calls of the drain root by functions
// that never claimed the runner role.
package bad

import "time"

type server struct {
	cmds    chan func()
	pending map[int]int // rcm:loop-owned
	seq     int         // rcm:loop-owned
}

// run dispatches posted commands, counting them. rcm:event-loop
func (s *server) run() {
	for f := range s.cmds {
		s.seq++
		f()
	}
}

// post schedules f on the loop. rcm:loop-post
func (s *server) post(f func()) { s.cmds <- f }

// Pending reads loop state from an exported entry point instead of
// posting a command.
func (s *server) Pending() int {
	return len(s.pending) // want `loop-owned field pending accessed from exported entry point Pending`
}

// arm mutates loop state from a timer callback — the callback runs on
// the timer goroutine, not the loop.
func (s *server) arm() {
	time.AfterFunc(time.Second, func() {
		s.seq++ // want `loop-owned field seq accessed from a callback passed to AfterFunc`
	})
}

// spawn mutates loop state from a spawned goroutine.
func (s *server) spawn() {
	go func() {
		delete(s.pending, 1) // want `loop-owned field pending accessed from a goroutine spawned with go`
	}()
}

// bump touches loop state; it is loop-reachable via postBump.
func (s *server) bump() { s.seq++ }

// postBump is the correct way in: post a closure.
func (s *server) postBump() { s.post(func() { s.bump() }) }

// Direct launders the access: bump itself is blessed, but calling it
// from an exported entry point runs it on the caller's goroutine.
func (s *server) Direct() {
	s.bump() // want `call to bump, which touches loop-owned state, from outside the event loop`
}

// Kick runs the drain with no claim marker: nothing says its goroutine
// holds the role.
func (s *server) Kick() {
	s.run() // want `call to run, which touches loop-owned state, from outside the event loop`
}

// Spawn launches the drain on a goroutine of its own, unmarked: a second
// runner beside whoever holds the role.
func (s *server) Spawn() {
	go s.run() // want `call to run, which touches loop-owned state, from outside the event loop`
}

// claimed carries the marker, but it sanctions only the drain: a call
// of any other loop method from it is still laundering, and so is a
// field access in its own body. rcm:loop-claim
func (s *server) claimed() {
	s.run()
	s.bump()  // want `call to bump, which touches loop-owned state, from outside the event loop`
	s.seq = 0 // want `loop-owned field seq accessed from claimed, which is not reachable from the event-loop dispatch`
}
