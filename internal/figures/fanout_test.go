package figures

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFanOut holds the figures' fan-out helper to its contract on one
// core and on four: every index runs exactly once and its result lands at
// its index, a failure reports the lowest failing index whatever the
// schedule, and no unit at all, or fewer units than cores, both work.
func TestFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 4} {
		runtime.GOMAXPROCS(width)
		for _, n := range []int{0, 1, 3, 100} {
			t.Run(fmt.Sprintf("width=%d/n=%d", width, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				out, err := fanOut(n, func(i int) (int, error) {
					runs[i].Add(1)
					return i * i, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != n {
					t.Fatalf("%d results for %d units", len(out), n)
				}
				for i := range n {
					if c := runs[i].Load(); c != 1 {
						t.Errorf("unit %d ran %d times", i, c)
					}
					if out[i] != i*i {
						t.Errorf("result %d = %d, want %d", i, out[i], i*i)
					}
				}
			})
		}
		t.Run(fmt.Sprintf("width=%d/lowest-error", width), func(t *testing.T) {
			failing := map[int]bool{3: true, 7: true, 50: true}
			var ran atomic.Int32
			out, err := fanOut(64, func(i int) (int, error) {
				ran.Add(1)
				if failing[i] {
					return 0, fmt.Errorf("unit %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "unit 3 failed" {
				t.Errorf("error %v, want the lowest failing unit's (unit 3)", err)
			}
			if out != nil {
				t.Errorf("results %v returned beside an error", out)
			}
			if ran.Load() != 64 {
				t.Errorf("%d of 64 units ran", ran.Load())
			}
		})
	}
}
