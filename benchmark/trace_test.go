package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},  // two concurrent clients:
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlap 30..40 counts once
		{ID: 3, Parent: 0, Start: 80, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Start: 10, End: 20},
	}
	want := []int64{100 - (50 + 20), 30 - 10, 30, 40, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, "x", 0)
	if id != -1 || tr.end(id) != 0 {
		t.Error("nil tracer produced a span")
	}
	ran := false
	if sec := tr.measure(-1, "x", 0, func() { ran = true; time.Sleep(time.Millisecond) }); !ran || sec < 0.001 {
		t.Errorf("nil tracer measure: ran=%v sec=%v", ran, sec)
	}
	tr.addOps(-1, "op", 0, []time.Time{time.Now()}, []time.Time{time.Now()})
}

func TestTracerParentsAndOps(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "root", -1)
	child := tr.begin(root, "child", 0)
	tr.end(child)
	now := time.Now()
	tr.addOps(child, "op", 0, []time.Time{now, now}, []time.Time{now.Add(time.Microsecond), now.Add(2 * time.Microsecond)})
	tr.end(root)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	for i, s := range tr.spans {
		if int(s.ID) != i || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
	if tr.spans[2].Parent != child || tr.spans[3].End-tr.spans[3].Start != 2000 {
		t.Errorf("op spans: %+v %+v", tr.spans[2], tr.spans[3])
	}
}
