package eventsim

import (
	"fmt"
	"io"
	"sort"
)

// Trace event kinds, in lifecycle order. A traced lookup's event list
// reads as a narrative: start (or skip), then for each hop a send
// (possibly repeated by rto/retransmission and candidate failover) and
// an accepting hop, ending in done or fail.
const (
	TraceStart = "start" // lookup began at Node (both endpoints online)
	TraceSkip  = "skip"  // lookup skipped: an endpoint was offline
	TraceSend  = "send"  // Node sent the request to To (candidate Cand, retransmission Try)
	TraceHop   = "hop"   // Node accepted the request; hop count is now Hops
	TraceRTO   = "rto"   // the attempt from Node to To timed out
	TraceDone  = "done"  // lookup completed at Node after Hops hops
	TraceFail  = "fail"  // lookup failed at Node (no candidates, hop bound, or dead holder)
	TraceRetry = "retry" // replicated lookup failed over at Node toward next owner To
)

// TraceEvent is one step of a traced lookup's path.
type TraceEvent struct {
	// T is the simulated time of the event.
	T float64
	// Kind is one of the Trace* constants.
	Kind string
	// Node is where the event occurred.
	Node int
	// To is the chosen next hop (send/rto events; 0 otherwise).
	To int
	// Hops is the lookup's hop count at the event.
	Hops int
	// Cand is the candidate index being tried and Try the
	// retransmission count for it (send/rto events).
	Cand, Try int
}

// Trace is the recorded path of one sampled lookup.
type Trace struct {
	// Lookup is the lookup's schedule index; Src and Dst its endpoints.
	Lookup   int
	Src, Dst int
	// Events is the path in simulated-time order.
	Events []TraceEvent
}

// traceRec tags a recorded event with its lookup for post-run merging.
type traceRec struct {
	lk uint32
	ev TraceEvent
}

func (sh *shard) recordTrace(lk uint32, ev TraceEvent) {
	sh.traces = append(sh.traces, traceRec{lk: lk, ev: ev})
}

// mergeTraces assembles the shards' trace buffers into per-lookup
// traces. Determinism across (Seed, Shards): the
// simulation itself is bit-identical, so the set of recorded events and
// their times are too; within one lookup, equal-time events always come
// from a single handler chain on the lookup's current owner shard, so
// concatenating buffers in shard order and stable-sorting by time
// reproduces exactly the order a single-shard run records.
func (e *engine) mergeTraces() []Trace {
	if e.trace <= 0 {
		return nil
	}
	byLookup := make(map[uint32][]TraceEvent)
	var order []uint32
	for _, sh := range e.shards {
		for _, rec := range sh.traces {
			if _, seen := byLookup[rec.lk]; !seen {
				order = append(order, rec.lk)
			}
			byLookup[rec.lk] = append(byLookup[rec.lk], rec.ev)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	traces := make([]Trace, 0, len(order))
	for _, lk := range order {
		evs := byLookup[lk]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
		l := &e.lookups[lk]
		traces = append(traces, Trace{
			Lookup: int(lk), Src: l.Src, Dst: l.Dst,
			Events: evs,
		})
	}
	return traces
}

// WriteTraces renders a result's sampled traces deterministically, one
// block per lookup:
//
//	lookup 3 src=17 dst=92 outcome=done hops=4
//	  t=0.401000 start node=17
//	  t=0.401000 send  node=17 -> 52 hops=0 cand=0 try=0
//	  ...
func WriteTraces(w io.Writer, r *Result) error {
	for ti := range r.Traces {
		tr := &r.Traces[ti]
		outcome, hops := traceOutcome(tr)
		if _, err := fmt.Fprintf(w, "lookup %d src=%d dst=%d outcome=%s hops=%d\n",
			tr.Lookup, tr.Src, tr.Dst, outcome, hops); err != nil {
			return err
		}
		for _, ev := range tr.Events {
			var err error
			switch ev.Kind {
			case TraceRetry:
				_, err = fmt.Fprintf(w, "  t=%.6f %-5s node=%d -> %d hops=%d\n",
					ev.T, ev.Kind, ev.Node, ev.To, ev.Hops)
			case TraceSend, TraceRTO:
				_, err = fmt.Fprintf(w, "  t=%.6f %-5s node=%d -> %d hops=%d cand=%d try=%d\n",
					ev.T, ev.Kind, ev.Node, ev.To, ev.Hops, ev.Cand, ev.Try)
			case TraceHop, TraceDone, TraceFail:
				_, err = fmt.Fprintf(w, "  t=%.6f %-5s node=%d hops=%d\n", ev.T, ev.Kind, ev.Node, ev.Hops)
			default: // start, skip
				_, err = fmt.Fprintf(w, "  t=%.6f %-5s node=%d\n", ev.T, ev.Kind, ev.Node)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// traceOutcome summarizes a trace: its terminal kind (done, fail, skip,
// or "inflight" for a lookup still running at the horizon) and final
// hop count.
func traceOutcome(tr *Trace) (string, int) {
	outcome, hops := "inflight", 0
	for _, ev := range tr.Events {
		if ev.Hops > hops {
			hops = ev.Hops
		}
		switch ev.Kind {
		case TraceDone, TraceFail, TraceSkip:
			outcome = ev.Kind
		}
	}
	return outcome, hops
}
