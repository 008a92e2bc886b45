package node

import "sync"

// inboxPacketCap bounds the datagrams waiting in a node's inbox; packets
// beyond it are dropped, as a kernel socket buffer would. Posted
// functions are never dropped: their producers are blocked callers and
// armed timers, both bounded elsewhere.
const inboxPacketCap = 4096

// inboxEntry is one unit of work for the event loop: a raw datagram with
// its sender (decoded on the loop), or — when fn is set — a posted
// function (a local request, a lifecycle command, a timer fire).
type inboxEntry struct {
	pkt  []byte
	from string
	fn   func()
}

// inbox is the one way into a node's event loop: a batched
// multi-producer single-consumer queue. Producers append under the mutex;
// the loop swaps the whole queue out under one lock acquisition and runs
// it unlocked. The wake channel is touched only when the loop has gone to
// sleep on an empty queue, so a busy node pays one uncontended lock per
// entry and no channel operation.
type inbox struct {
	mu      sync.Mutex
	q       []inboxEntry
	packets int  // datagrams in q
	asleep  bool // the loop is parked on wake
	closed  bool
	// wake carries at most one token: it is sent only by whoever flips
	// asleep back to false, and the loop consumes it before it can set
	// asleep again, so the send never blocks.
	wake chan struct{}
}

func newInbox() *inbox {
	return &inbox{wake: make(chan struct{}, 1)}
}

// put enqueues e, reporting false once the inbox is closed. A datagram
// arriving at a full inbox is dropped (and still reports true: the inbox
// is open, the network is merely lossy).
func (in *inbox) put(e inboxEntry) bool {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	if e.fn == nil {
		if in.packets >= inboxPacketCap {
			in.mu.Unlock()
			return true
		}
		in.packets++
	}
	in.q = append(in.q, e)
	in.unlockAndWake()
	return true
}

// unlockAndWake releases the mutex and, if the loop went to sleep on the
// queue this caller just changed, wakes it.
func (in *inbox) unlockAndWake() {
	wake := in.asleep
	in.asleep = false
	in.mu.Unlock()
	if wake {
		in.wake <- struct{}{}
	}
}

// take blocks until work is queued or the inbox is closed, then returns
// everything queued, leaving spare (emptied) as the new queue. open is
// false once the inbox is closed; the batch returned with it is the last,
// since put refuses entries from then on.
func (in *inbox) take(spare []inboxEntry) (batch []inboxEntry, open bool) {
	in.mu.Lock()
	for len(in.q) == 0 && !in.closed {
		in.asleep = true
		in.mu.Unlock()
		<-in.wake
		in.mu.Lock()
	}
	batch, in.q, in.packets = in.q, spare[:0], 0
	open = !in.closed
	in.mu.Unlock()
	return batch, open
}

// isClosed reports whether close has run.
func (in *inbox) isClosed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// close stops the inbox accepting entries and wakes the loop to drain.
func (in *inbox) close() {
	in.mu.Lock()
	in.closed = true
	in.unlockAndWake()
}
