package exp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rcm/eventsim"
)

// Error-path coverage for the streaming runner around ModeEvent cells:
// cancellation mid-grid, encoder write failures and the reorder-window
// ordering guarantee for multi-row cells.

// multiEventPlan is a grid whose event cells each yield several rows:
// 2 specs × 2 settings × 3 buckets = 12 rows from 4 cells.
func multiEventPlan() Plan {
	setting := func(rate float64) eventsim.Config {
		return eventsim.Config{
			Scenario: "massfail",
			Params:   eventsim.Params{FailFraction: 0.2, FailTime: 0.5, Rate: rate},
			Duration: 1.5,
			Buckets:  3,
		}
	}
	return Plan{
		Name:   "errorpath",
		Specs:  []Spec{MustSpec("chord"), MustSpec("kademlia")},
		Bits:   []int{7},
		Events: []eventsim.Config{setting(200), setting(400)},
	}
}

// TestStreamCancellationMidEventGrid: canceling while event cells are in
// flight must surface context.Canceled promptly and stop the sequence —
// multi-row cells must not keep yielding rows past the cancellation.
func TestStreamCancellationMidEventGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := multiEventPlan()
	var rows int
	var sawErr error
	for _, err := range Stream(ctx, plan, WithModes(ModeEvent), WithWorkers(2)) {
		if err != nil {
			sawErr = err
			break
		}
		rows++
		if rows == 2 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	// The cell in flight when cancel hit may finish (its rows were already
	// promised), but the full grid must not.
	if rows >= 12 {
		t.Fatalf("canceled run still yielded the whole grid (%d rows)", rows)
	}
}

// failWriter fails the (after+1)-th Write call with err.
type failWriter struct {
	after int
	err   error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, w.err
	}
	w.after--
	return len(p), nil
}

// TestStreamCSVWriteFailure: encoder write errors — on the header and on
// a mid-grid row — must propagate out of StreamCSV, and abandoning the
// underlying Stream mid-iteration must not deadlock its worker pool.
func TestStreamCSVWriteFailure(t *testing.T) {
	plan := multiEventPlan()
	for _, after := range []int{0, 1, 5} {
		wantErr := fmt.Errorf("disk full after %d writes", after)
		w := &failWriter{after: after, err: wantErr}
		err := StreamCSV(w, Stream(context.Background(), plan, WithModes(ModeEvent), WithWorkers(2)))
		if !errors.Is(err, wantErr) {
			t.Fatalf("after %d writes: StreamCSV error = %v, want %v", after, err, wantErr)
		}
	}
}

// TestModeEventReorderWindowOrdering is the regression test for the
// bounded reorder window with multi-row cells: however many workers race,
// rows must arrive grouped by cell in exact plan-expansion order
// (spec-major, setting-minor) with bucket times ascending inside each
// cell — a worker finishing cell 3 before cell 2 must not interleave
// their rows.
func TestModeEventReorderWindowOrdering(t *testing.T) {
	plan := multiEventPlan()
	for _, workers := range []int{1, 2, 8} {
		rows, err := Run(context.Background(), plan, WithModes(ModeEvent), WithWorkers(workers), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		const perCell = 3
		wantCells := []struct {
			geometry string
			rate     float64
		}{
			{"ring", 200}, {"ring", 400}, {"xor", 200}, {"xor", 400},
		}
		if len(rows) != perCell*len(wantCells) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), perCell*len(wantCells))
		}
		for ci, want := range wantCells {
			cell := rows[ci*perCell : (ci+1)*perCell]
			for ri, r := range cell {
				if r.Geometry != want.geometry {
					t.Fatalf("workers=%d: row %d geometry %s, want %s (cell order violated)",
						workers, ci*perCell+ri, r.Geometry, want.geometry)
				}
				if ri > 0 && !(r.Time > cell[ri-1].Time) {
					t.Fatalf("workers=%d: cell %d times not ascending: %v then %v",
						workers, ci, cell[ri-1].Time, r.Time)
				}
			}
		}
		// Distinguish the two settings of a spec by their workload volume:
		// the 400-rate cell must start roughly twice the lookups.
		sum := func(cell []Row) int {
			total := 0
			for _, r := range cell {
				total += r.EventStarted
			}
			return total
		}
		for spec := 0; spec < 2; spec++ {
			lo, hi := sum(rows[spec*2*perCell:(spec*2+1)*perCell]), sum(rows[(spec*2+1)*perCell:(spec*2+2)*perCell])
			if !(hi > lo) {
				t.Fatalf("workers=%d: setting order violated for spec %d: rate-400 cell started %d <= rate-200 cell %d",
					workers, spec, hi, lo)
			}
		}
	}
}
