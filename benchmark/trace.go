package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the span that caused
// it (-1 for a root); spans of one repetition share Rep. Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rep    int32  `json:"rep"`
}

// tracer keeps spans in memory and writes them once, at exit. It is
// used from one goroutine; concurrent clients time their operations
// into their own arrays and hand them over with addOps when the
// repetition is over. A nil tracer records nothing, so the untraced run
// pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// Room for the layer-boundary spans of a run; per-operation spans
	// arrive in bulk between repetitions, outside any timed section.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int32, name string, rep int) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now(), End: -1, Rep: int32(rep)})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int32) float64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = t.now()
	return float64(s.End-s.Start) / 1e9
}

// measure runs f inside a span and returns the span's duration in
// seconds (measured without a span on a nil tracer).
func (t *tracer) measure(parent int32, name string, rep int, f func()) float64 {
	if t == nil {
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}
	id := t.begin(parent, name, rep)
	f()
	return t.end(id)
}

// addOps appends one span per operation, timed by a client as absolute
// time.Time pairs, as children of parent.
func (t *tracer) addOps(parent int32, name string, rep int, starts, ends []time.Time) {
	if t == nil {
		return
	}
	for i := range starts {
		t.spans = append(t.spans, span{
			ID: int32(len(t.spans)), Parent: parent, Name: name,
			Start: int64(starts[i].Sub(t.t0)), End: int64(ends[i].Sub(t.t0)), Rep: int32(rep),
		})
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (concurrent clients), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
