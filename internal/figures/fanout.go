package figures

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanOut runs unit(0), …, unit(n−1), each exactly once, on up to one
// goroutine per core, and returns their results in index order. Every
// unit runs; if any failed, fanOut returns the error of the lowest failing
// index, so the error a figure reports does not depend on the schedule.
// Units must be independent: each draws from its own seed and writes only
// its own result.
func fanOut[T any](n int, unit func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	//lint:allow detsource sizes the fan-out only; TestFiguresPinned pins every table independent of it
	width := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for range width {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = unit(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
