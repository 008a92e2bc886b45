//go:build fuzz

package eventsim

import (
	"math"
	"slices"
	"testing"
)

// FuzzWheelQueue drives the timing wheel and the heap reference in
// lockstep (queuePair checks size, minTime and every pop) through the
// shapes the engine gives a wheel, each step read from the fuzzed bytes:
//
//	0: a slot filled by 1–4 time-sorted runs, one after the other — a
//	   shard's own sends, then one inbox batch per source shard — in the
//	   next few slots, or now and then at an upper level;
//	1: equal-time ties pushed in descending seq, beside a program item
//	   whose seq is below every other;
//	2: one pop, then late inserts into the slot it opened, one at the
//	   popped instant;
//	3: a drain up to a (t, seq) bound, as a due retransmission deadline
//	   bounds an epoch;
//	4: a drain to an epoch end, one to three lookaheads ahead.
//
// No step pushes before the last popped time, as the engine never
// schedules in its past. Build-tagged like the other fuzz targets; CI
// smokes it through `make fuzz-smoke`.
func FuzzWheelQueue(f *testing.F) {
	// Slots of 1 to 64 events, both sides of sortCutoff, in one run or
	// split into up to four.
	for n := 1; n <= 64; n++ {
		runs := min(n, 1+(n-1)/16+n%2, 4)
		seed := []byte{0, 3, 1, byte(runs - 1)}
		for r := 0; r < runs; r++ {
			m := n / runs
			if r < n%runs {
				m++
			}
			seed = append(seed, byte(m-1))
			for i := 0; i < m; i++ {
				seed = append(seed, byte(i*37+r*11+n))
			}
		}
		f.Add(append(seed, 1, 5, 3, 2, 4, 6, 3, 9, 200, 3, 20, 7, 1, 4, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const lookahead = 1.0
		const sw = lookahead / wheelSub
		r := fuzzBytes(data)
		p := newQueuePair(t, "fuzz", lookahead)
		p.seq = 1 << 32 // the program's numbers lie below
		low := uint64(0)
		now := 0.0
		onPop := func(e ev) { now = e.t }
		for step := 0; step < 256 && len(r) > 0; step++ {
			switch r.next() % 5 {
			case 0:
				slot := math.Floor(now/sw) + float64(r.next()%24)
				if r.next()%8 == 0 {
					slot += float64(r.next()) * float64(r.next()+1) * wheelSpan0 / 4
				}
				runs := 1 + int(r.next()%4)
				for k := 0; k < runs; k++ {
					m := 1 + int(r.next()%16)
					ts := make([]float64, m)
					for i := range ts {
						ts[i] = max(now, (slot+float64(r.next())/256)*sw)
					}
					slices.Sort(ts)
					for _, x := range ts {
						p.push(x)
					}
				}
			case 1:
				x := now + sw*float64(r.next()%32)/4
				k := 2 + uint64(r.next()%6)
				for i := k; i > 0; i-- {
					p.pushSeq(x, p.seq+i-1)
				}
				p.seq += k
				p.pushSeq(x, low)
				low++
			case 2:
				e, ok := p.pop()
				if !ok {
					break
				}
				now = e.t
				p.push(now)
				for i := r.next() % 8; i > 0; i-- {
					p.push(max(now, (math.Floor(now/sw)+float64(r.next())/256)*sw))
				}
			case 3:
				bt := now + sw*float64(r.next()%64)/8
				bseq := uint64(r.next())
				if r.next()%2 == 1 {
					bseq += p.seq - 128
				}
				p.drainKey(bt, bseq, onPop)
			case 4:
				end := (math.Floor(now/lookahead) + 1 + float64(r.next()%3)) * lookahead
				p.drain(end, onPop)
				now = end
			}
			p.minTime()
		}
		p.drain(math.Inf(1), nil)
		if _, ok := p.minTime(); ok {
			t.Fatal("events left after draining to +Inf")
		}
	})
}

// pop removes the least pending event from both queues and checks they
// agree on it.
func (p *queuePair) pop() (ev, bool) {
	p.t.Helper()
	we, wok := p.wheel.popBefore(math.Inf(1), 0)
	he, hok := p.heap.popBefore(math.Inf(1), 0)
	if wok != hok || we != he {
		p.t.Fatalf("%s: pop diverged: wheel %+v (%v) heap %+v (%v)", p.name, we, wok, he, hok)
	}
	return we, wok
}

// fuzzBytes reads a fuzz input a byte at a time, zeros once it is spent.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}
