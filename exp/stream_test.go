package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rcm/internal/core"
)

// analyticPlan returns a pure-analytic plan with n grid cells over the
// cheap constant-phase tree geometry.
func analyticPlan(n int) Plan {
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = float64(i%997) / 1000
	}
	return Plan{Name: "stream", Specs: []Spec{MustSpec("tree")}, Bits: []int{8}, Qs: qs}
}

// TestStreamMatchesRun checks the streaming iterator yields exactly the
// rows Run collects, in the same order.
func TestStreamMatchesRun(t *testing.T) {
	ctx := context.Background()
	plan := testPlan()
	collected, err := Run(ctx, plan, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for row, err := range Stream(ctx, plan, testOpts()...) {
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(collected) {
			t.Fatalf("stream yielded more than %d rows", len(collected))
		}
		var a, b bytes.Buffer
		if err := WriteCSV(&a, []Row{row}); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&b, []Row{collected[i]}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("row %d differs:\nstream: %scollect: %s", i, a.String(), b.String())
		}
		i++
	}
	if i != len(collected) {
		t.Errorf("stream yielded %d rows, Run collected %d", i, len(collected))
	}
}

// TestStreamCancellation is the cancellation contract: canceling the
// context mid-grid stops the run promptly and the iterator yields the
// context's error as its final element.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := analyticPlan(10000)
	var rows int
	var sawErr error
	for _, err := range Stream(ctx, plan, WithWorkers(2)) {
		if err != nil {
			sawErr = err
			break
		}
		rows++
		if rows == 5 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	if rows >= 10000 {
		t.Fatalf("canceled run still yielded the whole grid (%d rows)", rows)
	}
}

// beganGeometry is the tree geometry with a tally of the cells that have
// begun computing. Each cell of its plans has its own q, so the first
// PhaseFailure call at a q is the first of its cell; run it WithoutMemo so
// every cell reaches PhaseFailure.
type beganGeometry struct {
	core.Tree
	seen  *sync.Map
	began *atomic.Int64
}

func (g beganGeometry) PhaseFailure(d, m int, q float64) float64 {
	if _, dup := g.seen.LoadOrStore(q, true); !dup {
		g.began.Add(1)
	}
	return g.Tree.PhaseFailure(d, m, q)
}

// beganPlan returns an n-cell analytic plan over a fresh beganGeometry,
// and the geometry's tally.
func beganPlan(n int) (Plan, *atomic.Int64) {
	g := beganGeometry{seen: new(sync.Map), began: new(atomic.Int64)}
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = float64(i+1) / float64(n+1)
	}
	return Plan{Name: "began", Specs: []Spec{{Geometry: g}}, Bits: []int{8}, Qs: qs}, g.began
}

// TestStreamWindowBound pins the reorder window: at every yield, the
// cells begun are at most the rows yielded plus the window plus the cells
// the workers hold. The consumer encodes each row several times over so
// that an unbounded window would let the workers run far ahead.
func TestStreamWindowBound(t *testing.T) {
	const workers = 2
	plan, began := beganPlan(2000)
	window := int64(windowPerWorker * workers)
	var rows int64
	var buf []byte
	for row, err := range Stream(context.Background(), plan, WithWorkers(workers), WithoutMemo()) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
		if b := began.Load(); b > rows+window+workers {
			t.Fatalf("after %d rows %d cells have begun, more than rows + window %d + workers %d", rows, b, window, workers)
		}
		for range 50 {
			buf = row.appendCells(buf[:0])
		}
	}
	if rows != 2000 {
		t.Fatalf("stream yielded %d rows, want 2000", rows)
	}
}

// TestStreamCancelWithFullWindow: cancellation is prompt however many
// finished cells wait in the window. The consumer waits at row 5 until the
// lone worker has filled the window, then cancels; at most one more cell's
// rows may follow before context.Canceled.
func TestStreamCancelWithFullWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan, began := beganPlan(20 * windowPerWorker)
	var rows int
	var sawErr error
	for _, err := range Stream(ctx, plan, WithWorkers(1), WithoutMemo()) {
		if err != nil {
			sawErr = err
			break
		}
		rows++
		if rows == 5 {
			for began.Load() < 5+windowPerWorker {
				runtime.Gosched()
			}
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	if rows > 6 {
		t.Fatalf("%d rows yielded after canceling at row 5, want at most one more cell's", rows-5)
	}
}

// TestStreamPreCanceled: a context canceled before the run starts yields
// only the error.
func TestStreamPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rows int
	var sawErr error
	for _, err := range Stream(ctx, analyticPlan(100)) {
		if err != nil {
			sawErr = err
			break
		}
		rows++
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	if rows != 0 {
		t.Fatalf("pre-canceled run yielded %d rows", rows)
	}
}

// TestStreamEarlyBreak: abandoning the iterator mid-grid must not leak the
// worker pool or deadlock (the deferred wg.Wait inside Stream would hang).
func TestStreamEarlyBreak(t *testing.T) {
	for row, err := range Stream(context.Background(), analyticPlan(5000), WithWorkers(4)) {
		if err != nil {
			t.Fatal(err)
		}
		if row.Q != 0 {
			break
		}
	}
}

// TestStreamRunError checks a failing cell ends the stream with that
// cell's error in deterministic plan order.
func TestStreamRunError(t *testing.T) {
	plan := Plan{
		Specs: []Spec{MustSpec("chord")},
		Bits:  []int{30}, // beyond dht.MaxSimBits: every sim cell fails
		Qs:    PaperQGrid(),
	}
	var rows int
	var sawErr error
	for _, err := range Stream(context.Background(), plan, WithModes(ModeSim), WithPairs(10), WithTrials(1)) {
		if err != nil {
			sawErr = err
			break
		}
		rows++
	}
	if sawErr == nil || !strings.Contains(sawErr.Error(), "bits=30") {
		t.Fatalf("error = %v, want overlay construction failure", sawErr)
	}
	if rows != 0 {
		t.Errorf("rows before first-cell error = %d, want 0", rows)
	}
}

// TestStreamCSVPropagatesError: the streaming encoder surfaces the
// sequence's error instead of silently truncating the file.
func TestStreamCSVPropagatesError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b bytes.Buffer
	err := StreamCSV(&b, Stream(ctx, analyticPlan(100)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamCSV error = %v, want context.Canceled", err)
	}
}

// TestStreamConstantMemory is the no-full-grid-buffering guard: per-cell
// allocations must stay flat as the grid grows. A runner that buffered the
// whole grid per cell (e.g. materializing all cells up front) would show
// super-constant growth here long before it OOMs anyone.
func TestStreamConstantMemory(t *testing.T) {
	perCell := func(cells int) float64 {
		plan := analyticPlan(cells)
		opts := []Option{WithWorkers(1), WithoutMemo()}
		allocs := testing.AllocsPerRun(1, func() {
			for _, err := range Stream(context.Background(), plan, opts...) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		return allocs / float64(cells)
	}
	small := perCell(200)
	large := perCell(4000)
	// Flat means the per-cell cost is independent of grid size; allow 50%
	// slack plus a tiny absolute epsilon for fixed per-run overhead.
	if large > small*1.5+1 {
		t.Errorf("per-cell allocs grew with grid size: %.2f at 200 cells vs %.2f at 4000", small, large)
	}
}

func ExampleStream() {
	plan := Plan{
		Name:  "example",
		Specs: []Spec{MustSpec("hypercube")},
		Bits:  []int{16},
		Qs:    []float64{0.1, 0.3},
	}
	for row, err := range Stream(context.Background(), plan) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s d=%d q=%.1f r=%.3f\n", row.Geometry, row.Bits, row.Q, row.AnalyticRoutability)
	}
	// Output:
	// hypercube d=16 q=0.1 r=0.989
	// hypercube d=16 q=0.3 r=0.876
}
