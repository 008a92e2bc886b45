package node

import "sync"

// inboxPacketCap bounds the datagrams waiting in a node's inbox; packets
// beyond it are dropped, as a kernel socket buffer would. Posted
// functions are never dropped: their producers are blocked callers and
// armed timers, both bounded elsewhere.
const inboxPacketCap = 4096

// inboxEntry is one turn of a node: a raw datagram with its sender
// (decoded in the turn), or — when fn is set — a posted function (a
// local request, a lifecycle command, a timer fire).
type inboxEntry struct {
	pkt  []byte
	from string
	fn   func()
}

// inbox is the one way into a node's turns: a multi-producer queue
// whose consumer is whichever goroutine holds the runner role. The node
// has no goroutine of its own waiting on it. A put into an idle inbox
// claims the role for its caller, who runs the queued turns on its own
// goroutine (Node.drain) until the queue is empty; a put into a busy
// inbox only enqueues. The holder takes the queue a batch at a time
// under the mutex, runs the batch unlocked, and releases the role under
// the same mutex put takes, so an entry put as the role is released
// either lands in a batch the holder still takes or claims the role for
// its own producer: it is never stranded.
//
// Until start the role cannot be claimed, so what is put waits. Once the
// inbox is closed put refuses everything; the holder then runs what is
// left and keeps the role for the final drop, and close claims it when
// nobody holds it.
type inbox struct {
	mu      sync.Mutex
	q       []inboxEntry
	packets int  // datagrams in q
	started bool // start has run: a put may claim the role
	running bool // a goroutine holds the runner role
	closed  bool

	// The holder's batch: written only by the goroutine holding the
	// role, and handed over with it under mu.
	batch []inboxEntry // taken from q, run in order
	next  int          // batch[next:] is still to run
	open  bool         // the inbox was open when batch was taken
	spare []inboxEntry // q's next backing array while the role is idle

	// drained is closed once the final drop of a closed node has run.
	drained chan struct{}
}

func newInbox() *inbox {
	return &inbox{drained: make(chan struct{})}
}

// put enqueues e. accepted is false once the inbox is closed; a datagram
// arriving at a full inbox is dropped and still accepted (the inbox is
// open, the network is merely lossy). claimed reports that the caller
// now holds the runner role and must drain.
//
// With lent, e's datagram is borrowed for the caller's call: put copies
// it only if it must wait — the inbox is busy or not started. A started
// inbox whose role is free is empty, so a datagram whose put claims the
// role is the first turn the caller's drain runs, decoded before the
// caller returns.
func (in *inbox) put(e inboxEntry, lent bool) (accepted, claimed bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false, false
	}
	if e.fn == nil {
		if in.packets >= inboxPacketCap {
			return true, false
		}
		in.packets++
	}
	if claimed = in.claim(); lent && !claimed {
		e.pkt = append([]byte(nil), e.pkt...)
	}
	in.q = append(in.q, e)
	return true, claimed
}

// claim takes the runner role if it is free and the inbox started.
// Callers hold in.mu.
func (in *inbox) claim() bool {
	if !in.started || in.running {
		return false
	}
	in.running = true
	return true
}

// start lets puts claim the role, reporting whether the caller claimed it
// to run what was put before. It is a no-op on a closed inbox (open is
// false).
func (in *inbox) start() (claimed, open bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false, false
	}
	in.started = true
	return len(in.q) > 0 && in.claim(), true
}

// take hands the role holder its next entry, refilling the batch from
// the queue when it is spent. open is false once the inbox is closed. A
// nil entry means the queue is empty: on an open inbox the role is
// released with it, on a closed one the holder keeps it for the final
// drop.
func (in *inbox) take() (e *inboxEntry, open bool) {
	if in.next < len(in.batch) {
		in.next++
		return &in.batch[in.next-1], in.open
	}
	clear(in.batch) // the next queue: keep no packet or closure alive through it
	in.mu.Lock()
	defer in.mu.Unlock()
	spent := in.batch[:0]
	if spent == nil {
		spent, in.spare = in.spare, nil
	}
	batch, open := in.q, !in.closed
	if len(batch) == 0 {
		in.batch, in.next = nil, 0
		if open {
			in.spare, in.running = spent, false
		}
		return nil, open
	}
	in.batch, in.next, in.open = batch, 1, open
	in.q, in.packets = spent, 0
	return &batch[0], open
}

// untake puts back the entry take just handed out, for the next holder
// of the role.
func (in *inbox) untake() { in.next-- }

// isClosed reports whether close has run.
func (in *inbox) isClosed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// close stops the inbox accepting entries. claimed reports that nobody
// held the role, so the caller now holds it and must run the rest.
func (in *inbox) close() (claimed bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	if in.running {
		return false
	}
	in.running = true
	return true
}
