package exp

import (
	"runtime"

	"rcm/internal/core"
)

// settings is the resolved run configuration assembled from Options; the
// struct never appears in the public API.
type settings struct {
	mode    Mode
	seed    uint64
	workers int
	pairs   int
	trials  int
	eval    *core.Evaluator // the run's analytic memo; nil under WithoutMemo
}

// Option configures one run of a Plan (Stream or Run).
type Option func(*settings)

func resolve(opts []Option) settings {
	st := settings{mode: ModeAnalytic, seed: 1, eval: core.NewEvaluator()}
	for _, o := range opts {
		o(&st)
	}
	if st.workers <= 0 {
		//lint:allow detsource sizes the cell pool only; TestParallelMatchesSerial pins rows independent of it
		st.workers = runtime.NumCPU()
	}
	return st
}

// WithModes selects the measurements each cell performs; the flags
// compose. The default is ModeAnalytic.
func WithModes(modes ...Mode) Option {
	return func(st *settings) {
		var m Mode
		for _, f := range modes {
			m |= f
		}
		st.mode = m
	}
}

// WithSeed sets the seed all randomness derives from (default 1): rows
// are a function of the plan, the modes, pairs, trials and this seed, on
// any host. Grid cell i (by q index) measures with seed seed + i·0x9e37,
// sim.Sweep's schedule; event cells use the seed directly and seed+1 for
// their static comparison.
func WithSeed(seed uint64) Option {
	return func(st *settings) { st.seed = seed }
}

// WithWorkers bounds cell-level parallelism, the only parallelism of a
// static run (one cell measures on one goroutine); zero or negative means
// all CPUs (the default). Row order and content do not depend on it.
func WithWorkers(n int) Option {
	return func(st *settings) { st.workers = n }
}

// WithPairs sets the sampled pairs per static-resilience trial of ModeSim
// cells (default 10000).
func WithPairs(n int) Option {
	return func(st *settings) { st.pairs = n }
}

// WithTrials sets the independent failure patterns per ModeSim cell
// (default 3).
func WithTrials(n int) Option {
	return func(st *settings) { st.trials = n }
}

// WithoutMemo disables analytic memoization entirely and evaluates every
// cell through the direct package-level path — the serial reference used
// by equivalence tests and the benchmark's exp.memo_speedup baseline.
func WithoutMemo() Option {
	return func(st *settings) { st.eval = nil }
}
