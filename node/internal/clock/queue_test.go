package clock

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestQueueAgainstSortedSlice drives a Queue with random arms, re-arms,
// cancels and pops, and holds every pop to a sorted-slice oracle of
// (deadline, arming order). Deadlines come from a small range, so equal
// deadlines are the common case, and a third of the cancels target the
// current root.
func TestQueueAgainstSortedSlice(t *testing.T) {
	type entry struct {
		id int
		h  Handle
	}
	type want struct {
		at  time.Duration
		seq int
		id  int
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		var q Queue[*entry]
		entries := make([]*entry, 64)
		for i := range entries {
			entries[i] = &entry{id: i}
		}
		var oracle []want // sorted by (at, seq)
		seq := 0
		find := func(id int) int {
			return slices.IndexFunc(oracle, func(w want) bool { return w.id == id })
		}
		remove := func(id int) {
			if i := find(id); i >= 0 {
				oracle = slices.Delete(oracle, i, i+1)
			}
		}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // arm or re-arm
				e := entries[rng.Intn(len(entries))]
				at := time.Duration(rng.Intn(8))
				q.Arm(&e.h, e, at)
				remove(e.id)
				seq++
				w := want{at, seq, e.id}
				i, _ := slices.BinarySearchFunc(oracle, w, func(a, b want) int {
					if a.at != b.at {
						return int(a.at - b.at)
					}
					return a.seq - b.seq
				})
				oracle = slices.Insert(oracle, i, w)
			case r < 7: // cancel, the root a third of the time
				var e *entry
				if len(oracle) > 0 && rng.Intn(3) == 0 {
					e = entries[oracle[0].id]
				} else {
					e = entries[rng.Intn(len(entries))]
				}
				q.Stop(&e.h)
				remove(e.id)
			default:
				at, e, ok := q.Pop()
				if ok != (len(oracle) > 0) {
					t.Fatalf("round %d op %d: Pop ok=%v with %d queued", round, op, ok, len(oracle))
				}
				if !ok {
					continue
				}
				if w := oracle[0]; e.id != w.id || at != w.at {
					t.Fatalf("round %d op %d: popped %d@%d, want %d@%d", round, op, e.id, at, w.id, w.at)
				}
				if e.h.Queued() {
					t.Fatalf("round %d op %d: popped entry still reports queued", round, op)
				}
				oracle = oracle[1:]
			}
			if q.Len() != len(oracle) {
				t.Fatalf("round %d op %d: Len %d, oracle %d", round, op, q.Len(), len(oracle))
			}
			for _, e := range entries {
				if e.h.Queued() != (find(e.id) >= 0) {
					t.Fatalf("round %d op %d: entry %d Queued()=%v disagrees with the oracle", round, op, e.id, e.h.Queued())
				}
			}
			if next, ok := q.Next(); ok != (len(oracle) > 0) || ok && next != oracle[0].at {
				t.Fatalf("round %d op %d: Next = %d,%v, oracle root %v", round, op, next, ok, oracle)
			}
		}
		q.Clear()
		for _, e := range entries {
			if e.h.Queued() {
				t.Fatalf("round %d: entry %d still queued after Clear", round, e.id)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: Len %d after Clear", round, q.Len())
		}
	}
}

// TestVirtualRunOrder: a Virtual runs its entries in (deadline, arming
// order), advances Now to each entry's deadline, lets a running entry
// arm more, and reports a dry queue.
func TestVirtualRunOrder(t *testing.T) {
	var v Virtual
	var got []string
	at := func(d time.Duration, name string, then func()) {
		v.AfterFunc(d, func() {
			got = append(got, name+"@"+v.Now().String())
			if then != nil {
				then()
			}
		})
	}
	at(2*time.Millisecond, "b", nil)
	at(time.Millisecond, "a", func() { at(time.Millisecond, "c", nil) }) // due with b, armed after it
	stopped := v.AfterFunc(0, func() { got = append(got, "stopped") })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop of an armed entry must report true once")
	}
	if !v.Run(func() bool { return len(got) == 3 }) {
		t.Fatal("Run ran dry before three entries ran")
	}
	if want := []string{"a@1ms", "b@2ms", "c@2ms"}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if v.Run(func() bool { return false }) {
		t.Fatal("Run on an empty queue reported done")
	}
}
