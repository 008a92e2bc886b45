package eventsim

import (
	"fmt"
	"math"
	"testing"
)

// TestPendingRingWrapAndGrow drives the pending ring across the uint32
// wrap of its attempt ids and through two growths while retiring every
// third attempt: every id still in flight must read back its own record,
// and the ring must hand them back oldest first. A growth that copies
// the slots by index instead of re-laying each id under the new mask
// leaves the ids it moved reading other attempts' records.
func TestPendingRingWrapAndGrow(t *testing.T) {
	const start = math.MaxUint32 - 4 // 2^32 − 5: the fifth push wraps
	r := pendingRing{head: start, tail: start}
	var inflight []uint32 // FIFO oracle: ids armed and not yet retired
	check := func(step int) {
		t.Helper()
		if r.size() != len(inflight) {
			t.Fatalf("step %d: ring holds %d attempts, want %d", step, r.size(), len(inflight))
		}
		for _, id := range inflight {
			if got := r.at(id).lk; got != id {
				t.Fatalf("step %d: attempt %d reads the record of attempt %d", step, id, got)
			}
		}
	}
	grows := 0
	for step := 0; grows < 2; step++ {
		size := len(r.buf)
		id, pd := r.push()
		if id != start+uint32(step) {
			t.Fatalf("step %d: push returned id %d, want %d", step, id, start+uint32(step))
		}
		pd.lk = id
		if size > 0 && len(r.buf) != size {
			grows++
		}
		inflight = append(inflight, id)
		if step%3 == 2 {
			if got := r.front().lk; got != inflight[0] {
				t.Fatalf("step %d: front is attempt %d, want %d", step, got, inflight[0])
			}
			r.pop()
			inflight = inflight[1:]
		}
		check(step)
	}
	if r.tail >= start {
		t.Fatalf("tail %d: the ids never wrapped", r.tail)
	}
	for len(inflight) > 0 {
		if got := r.front().lk; got != inflight[0] {
			t.Fatalf("drain: front is attempt %d, want %d", got, inflight[0])
		}
		r.pop()
		inflight = inflight[1:]
	}
	if r.size() != 0 {
		t.Fatalf("%d attempts left after draining", r.size())
	}
}

// TestAckedAttemptsNeverTimeOut: with no loss and no node
// failures every request is accepted, so every attempt is acknowledged
// before its deadline — including acknowledgements that cross shards and
// are applied only at the next epoch — and no retransmission timer may
// fire. The delay-spike and reorder plan stretches latencies without
// dropping anything, which widens the deadline and the acks' spread.
// Constant latency leaves the narrowest margin: its deadline falls
// between one and two epochs after the epoch that acknowledged it.
func TestAckedAttemptsNeverTimeOut(t *testing.T) {
	for _, nw := range []network{
		parseNetwork(t, "", "constant"),
		parseNetwork(t, "", "empirical"),
		parseNetwork(t, "delayspike:3@1-3,reorder:0.2", "empirical"),
	} {
		for shards := 1; shards <= 5; shards++ {
			t.Run(fmt.Sprintf("%s/shards=%d", nw.label, shards), func(t *testing.T) {
				res := mustRun(t, Config{
					Protocol:  "chord",
					Overlay:   OverlayConfig{Bits: 8},
					Scenario:  "faultstorm",
					Params:    Params{Rate: 500},
					Transport: nw.transport,
					Fault:     nw.plan,
					Shards:    shards,
					Duration:  4,
					Seed:      5,
				})
				tot := res.Totals()
				if tot.Started == 0 || tot.Completed != tot.Started {
					t.Fatalf("%d of %d lookups completed on a lossless, failure-free run", tot.Completed, tot.Started)
				}
				if tot.Timeouts != 0 {
					t.Fatalf("%d retransmission timeouts fired for acknowledged attempts", tot.Timeouts)
				}
			})
		}
	}
}
