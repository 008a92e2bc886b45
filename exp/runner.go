package exp

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"rcm/eventsim"
	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/sim"
)

// seedStride separates the measurement seeds of adjacent q-grid cells,
// on sim.Sweep's schedule.
const seedStride = 0x9e37

// windowPerWorker sizes Stream's reorder window: windowPerWorker × workers
// result slots, reused in turn, so a consumer that pauses (an encoder's
// Write, a slow cell at the head of the window) does not idle the pool.
// A worker claims a cell only with one of the window's tokens, so at most
// that many cells are begun ahead of the consumer and memory stays
// constant per worker.
const windowPerWorker = 64

// Row is one result of a plan: a grid cell, or one time bucket of an event
// cell. Measurements a cell did not perform are NaN (encoded as empty CSV
// cells).
type Row struct {
	// Plan is the plan name.
	Plan string
	// Kind is "grid" or "event".
	Kind string
	// Geometry, System and Protocol identify the spec.
	Geometry, System, Protocol string
	// Bits is the identifier length d (N = 2^d).
	Bits int
	// Q is the node-failure probability; for event rows it is q_eff.
	Q float64

	// AnalyticRoutability, AnalyticFailedPct and AnalyticReach are the RCM
	// closed forms r(N,q), 100·(1−r) and E[S].
	AnalyticRoutability float64
	AnalyticFailedPct   float64
	AnalyticReach       float64

	// SimRoutability and friends report the static-resilience measurement.
	SimRoutability float64
	SimFailedPct   float64
	SimStdErr      float64
	SimMeanHops    float64
	SimAlive       float64
	SimPairs       int
	SimTrials      int

	// Scenario names the event scenario; Time is the end of the row's
	// metric window. Event rows only (an event cell yields one row per
	// time bucket, in time order; Q carries the scenario's q_eff).
	Scenario string
	Time     float64
	// EventStarted counts lookups begun in the window (both endpoints
	// online); EventSuccess, EventMeanHops and EventMeanLatency summarize
	// that cohort's outcomes.
	EventStarted     int
	EventSuccess     float64
	EventMeanHops    float64
	EventMeanLatency float64
	// EventMsgsNodeS and EventMaintNodeS are lookup and maintenance
	// message rates, per node per time unit; EventOnline is the alive
	// fraction at the window start.
	EventMsgsNodeS  float64
	EventMaintNodeS float64
	EventOnline     float64
	// EventHopsP50/P99/P999 and EventLatencyP50/P99/P999 are the
	// window cohort's hop-count and latency percentiles from the
	// engine's distribution collector (rcm/obs). Hop percentiles are
	// exact order statistics; latency percentiles carry the
	// histogram's ≤6.25% bucket resolution and are reported in the
	// run's time unit, like EventMeanLatency. NaN when the window
	// completed no lookups.
	EventHopsP50, EventHopsP99, EventHopsP999          float64
	EventLatencyP50, EventLatencyP99, EventLatencyP999 float64
	// EventReplicas is the run's effective key replication factor (1 =
	// unreplicated) and EventRepairNodeS the churn-driven re-replication
	// message rate per node per time unit. Event rows only.
	EventReplicas    int
	EventRepairNodeS float64
}

// newRow returns a Row with every measurement field set to NaN.
func newRow(plan string, c cell) Row {
	nan := math.NaN()
	return Row{
		Plan:     plan,
		Geometry: c.spec.Geometry.Name(),
		System:   c.spec.Geometry.System(),
		Protocol: c.spec.Protocol,
		Bits:     c.bits,
		Q:        c.q,

		AnalyticRoutability: nan,
		AnalyticFailedPct:   nan,
		AnalyticReach:       nan,
		SimRoutability:      nan,
		SimFailedPct:        nan,
		SimStdErr:           nan,
		SimMeanHops:         nan,
		SimAlive:            nan,
		Time:                nan,
		EventSuccess:        nan,
		EventMeanHops:       nan,
		EventMeanLatency:    nan,
		EventMsgsNodeS:      nan,
		EventMaintNodeS:     nan,
		EventOnline:         nan,
		EventHopsP50:        nan,
		EventHopsP99:        nan,
		EventHopsP999:       nan,
		EventLatencyP50:     nan,
		EventLatencyP99:     nan,
		EventLatencyP999:    nan,
		EventRepairNodeS:    nan,
	}
}

// overlayKey identifies a constructed overlay shared by read-only cells:
// the protocol name plus the full canonical construction configuration.
type overlayKey struct {
	protocol string
	cfg      Config
}

// onceMap computes the value of each key at most once, however many cells
// ask for it concurrently; every asker gets that one value and error. The
// zero value is ready.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (om *onceMap[K, V]) get(key K, compute func() (V, error)) (V, error) {
	om.mu.Lock()
	if om.m == nil {
		om.m = make(map[K]*onceEntry[V])
	}
	e, ok := om.m[key]
	if !ok {
		e = new(onceEntry[V])
		om.m[key] = e
	}
	om.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

type staticKey struct {
	key overlayKey
	q   float64
}

func build(key overlayKey) (dht.Protocol, error) {
	return dht.New(key.protocol, key.cfg)
}

// run carries the per-run execution state shared by the workers.
type run struct {
	plan Plan
	st   settings
	// overlays shares overlay construction across the cells of one run.
	// Route is read-only and safe for concurrent use; event cells with
	// maintenance mutate tables and therefore bypass the cache.
	overlays onceMap[overlayKey, dht.Protocol]
	// statics deduplicates the event cells' static-resilience comparison:
	// the settings of one (spec, bits, q_eff) group — maintenance on/off
	// variants, say — measure the same unmaintained overlay at the same
	// seed, so they share one result.
	statics onceMap[staticKey, sim.Result]
}

// overlay returns the run's shared, read-only overlay for key.
func (r *run) overlay(key overlayKey) (dht.Protocol, error) {
	return r.overlays.get(key, func() (dht.Protocol, error) { return build(key) })
}

// result is one computed cell, left in its window slot for the consumer:
// a grid cell's one row, or an event cell's row per time bucket.
type result struct {
	grid bool  // set for a grid cell, whose one row is row
	row  Row   // a grid cell's row
	rows []Row // an event cell's rows
	err  error
}

// slot is one entry of Stream's reorder window. A worker writes res and
// then sets done; the consumer copies res out and clears done.
type slot struct {
	res  result
	done atomic.Bool
}

// Stream executes the plan and yields one Row per cell, in plan order, as
// a single-use iterator. The sequence is deterministic for a fixed plan
// and options: cell ordering never depends on worker scheduling, and all
// randomness derives from the run seed.
//
// Cells execute on a worker pool; only a bounded window of 64 × workers
// cells is buffered for reordering, so arbitrarily large grids stream in
// constant memory. The context is checked before each cell's rows are
// yielded: when it is canceled the iterator stops promptly, however full
// the window, and yields ctx.Err(). The first cell error (in plan order)
// likewise ends the sequence.
func Stream(ctx context.Context, plan Plan, opts ...Option) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		st := resolve(opts)
		if err := plan.Validate(st.mode); err != nil {
			yield(Row{}, err)
			return
		}
		total := plan.cellCount(st.mode)
		if total == 0 {
			return
		}
		workers := min(st.workers, total)
		window := min(windowPerWorker*workers, total)

		r := &run{plan: plan, st: st}

		// Cell i is computed into slots[i%window]. A worker claims the next
		// cell only holding one of the window's tokens, and the consumer
		// returns a token once it has copied a cell's result out, so the
		// cells claimed but not yet consumed never outnumber the slots and
		// no two of them share one. wake holds at most one signal: a worker
		// that finishes a cell leaves one, and the consumer, waiting for
		// the slot at the head of the window, rechecks that slot on each.
		slots := make([]slot, window)
		tokens := make(chan struct{}, window)
		for range window {
			tokens <- struct{}{}
		}
		wake := make(chan struct{}, 1)
		var next atomic.Int64

		// Unwind order matters: cancel releases the workers waiting for a
		// token before wg.Wait collects them, so no worker outlives the
		// iterator.
		var wg sync.WaitGroup
		defer wg.Wait()
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()

		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-tokens:
					case <-runCtx.Done():
						return
					}
					i := int(next.Add(1) - 1)
					if i >= total || runCtx.Err() != nil {
						return
					}
					s := &slots[i%window]
					r.runCell(plan.cellAt(st.mode, i), &s.res)
					s.done.Store(true)
					select {
					case wake <- struct{}{}:
					default: // a signal is already pending
					}
				}
			}()
		}

		// The consumer waits on ctx as well as on cell i's slot, since once
		// the run is canceled no worker claims another cell. It returns the
		// slot's token before it yields, so a consumer paused inside yield
		// still leaves the whole window to the workers.
		for i := range total {
			s := &slots[i%window]
			for !s.done.Load() {
				select {
				case <-wake:
				case <-ctx.Done():
					yield(Row{}, ctx.Err())
					return
				}
			}
			res := s.res
			s.res.rows = nil // the slot holds no event rows for the GC to keep
			s.done.Store(false)
			tokens <- struct{}{}
			if res.err == nil {
				res.err = ctx.Err()
			}
			if res.err != nil {
				yield(Row{}, res.err)
				return
			}
			if res.grid {
				if !yield(res.row, nil) {
					return
				}
				continue
			}
			for _, row := range res.rows {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
}

// Run executes the plan and collects one Row per cell, in plan order. It
// is Stream buffered into a slice: use Stream directly when the grid is
// large enough that holding every row in memory matters.
func Run(ctx context.Context, plan Plan, opts ...Option) ([]Row, error) {
	st := resolve(opts)
	rows := make([]Row, 0, plan.cellCount(st.mode))
	for row, err := range Stream(ctx, plan, opts...) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runCell executes one cell into res, which it overwrites.
func (r *run) runCell(c cell, res *result) {
	if c.kind == eventCell {
		rows, err := r.fillEvent(c)
		if err != nil {
			err = fmt.Errorf("exp: event cell %s d=%d %s: %w", c.spec.Geometry.Name(), c.bits, c.event.Scenario, err)
		}
		*res = result{rows: rows, err: err}
		return
	}
	res.grid, res.rows = true, nil
	res.row = newRow(r.plan.Name, c)
	res.row.Kind = "grid"
	res.err = r.fillGrid(&res.row, c)
	if res.err != nil {
		res.err = fmt.Errorf("exp: grid cell %s d=%d q=%v: %w", c.spec.Geometry.Name(), c.bits, c.q, res.err)
	}
}

// fillAnalytic computes the closed forms at (g, d, q) through the memo
// cache, or the direct path when memoization is disabled.
func (r *run) fillAnalytic(row *Row, g Geometry, d int, q float64) error {
	var (
		rt, reach float64
		err       error
	)
	if eval := r.st.eval; eval != nil {
		rt, err = eval.Routability(g, d, q)
		if err == nil {
			reach, err = eval.ExpectedReach(g, d, q)
		}
	} else {
		rt, err = core.Routability(g, d, q)
		if err == nil {
			reach, err = core.ExpectedReach(g, d, q)
		}
	}
	if err != nil {
		return err
	}
	row.AnalyticRoutability = rt
	row.AnalyticFailedPct = 100 * (1 - rt)
	row.AnalyticReach = reach
	return nil
}

// overlayKey returns the cache key for the cell's overlay: the spec's
// canonical configuration with Bits and Seed pinned by the runner.
func (r *run) overlayKey(c cell) overlayKey {
	cfg := c.spec.Overlay
	cfg.Bits = c.bits
	cfg.Seed = r.st.seed
	return overlayKey{protocol: c.spec.Protocol, cfg: cfg}
}

// fillGrid computes a grid cell: analytic closed forms and/or one
// static-resilience measurement.
func (r *run) fillGrid(row *Row, c cell) error {
	if r.st.mode&ModeAnalytic != 0 {
		if err := r.fillAnalytic(row, c.spec.Geometry, c.bits, c.q); err != nil {
			return err
		}
	}
	if r.st.mode&ModeSim != 0 {
		p, err := r.overlay(r.overlayKey(c))
		if err != nil {
			return err
		}
		res, err := sim.MeasureStaticResilience(p, c.q, sim.Options{
			Pairs:  r.st.pairs,
			Trials: r.st.trials,
			Seed:   r.st.seed + uint64(c.qIdx)*seedStride,
		})
		if err != nil {
			return err
		}
		fillSim(row, res)
	}
	return nil
}

func fillSim(row *Row, res sim.Result) {
	row.SimRoutability = res.Routability
	row.SimFailedPct = res.FailedPathPct
	row.SimStdErr = res.StdErr
	row.SimMeanHops = res.MeanHops
	row.SimAlive = res.AliveFraction
	row.SimPairs = res.Pairs
	row.SimTrials = res.Trials
}

// fillStatic fills the static comparison of an event cell: static
// resilience on an unmutated overlay at q = q_eff, seeded at seed+1. It
// depends only on (spec, bits, q_eff), so the event settings of one group
// that share a q_eff share a single cached measurement.
func (r *run) fillStatic(row *Row, key overlayKey, q float64) error {
	res, err := r.statics.get(staticKey{key: key, q: q}, func() (sim.Result, error) {
		static, err := r.overlay(key)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.MeasureStaticResilience(static, q, sim.Options{
			Pairs:  r.st.pairs,
			Trials: r.st.trials,
			Seed:   r.st.seed + 1,
		})
	})
	if err != nil {
		return err
	}
	fillSim(row, res)
	return nil
}

// fillEvent computes an event cell: one message-level simulation whose
// time buckets become one Row each, plus — depending on the run mode —
// the analytic closed forms and a static simulated comparison at the
// scenario's q_eff, repeated on every row so each time window can be read
// against the static predictions directly.
func (r *run) fillEvent(c cell) ([]Row, error) {
	key := r.overlayKey(c)
	cfg := c.event
	cfg.Protocol, cfg.Overlay, cfg.Seed = key.protocol, key.cfg, r.st.seed
	var p dht.Protocol
	var err error
	if cfg.Maintain {
		// Maintenance mutates routing tables in place; build a private
		// overlay so cells sharing the cache never observe the repairs.
		p, err = build(key)
	} else {
		p, err = r.overlay(key)
	}
	if err != nil {
		return nil, err
	}
	res, err := eventsim.RunOverlay(p, cfg)
	if err != nil {
		return nil, err
	}

	proto := newRow(r.plan.Name, c)
	proto.Kind = "event"
	proto.Scenario = res.Scenario
	if r.st.mode&ModeAnalytic != 0 {
		if err := r.fillAnalytic(&proto, c.spec.Geometry, c.bits, c.q); err != nil {
			return nil, err
		}
	}
	if r.st.mode&ModeSim != 0 {
		if err := r.fillStatic(&proto, key, c.q); err != nil {
			return nil, err
		}
	}

	rows := make([]Row, 0, len(res.Buckets))
	nodes := float64(res.Nodes)
	for bi, b := range res.Buckets {
		row := proto
		row.Time = b.End
		row.EventStarted = b.Started
		row.EventSuccess = b.Success()
		row.EventMeanHops = b.MeanHops()
		row.EventMeanLatency = b.MeanLatency()
		if width := b.End - b.Start; width > 0 {
			row.EventMsgsNodeS = float64(b.LookupMessages) / (nodes * width)
			row.EventMaintNodeS = float64(b.MaintMessages) / (nodes * width)
			row.EventRepairNodeS = float64(b.RepairMessages) / (nodes * width)
		}
		row.EventOnline = b.OnlineFraction
		row.EventReplicas = res.Replicas
		// Percentile columns, when the window completed anything (they
		// stay NaN otherwise). The latency histogram records integer
		// microseconds; the columns convert back to the run's time unit.
		if res.HopDist[bi].Count() > 0 {
			hd, ld := &res.HopDist[bi], &res.LatDist[bi]
			row.EventHopsP50 = float64(hd.P50())
			row.EventHopsP99 = float64(hd.P99())
			row.EventHopsP999 = float64(hd.P999())
			row.EventLatencyP50 = float64(ld.P50()) / 1e6
			row.EventLatencyP99 = float64(ld.P99()) / 1e6
			row.EventLatencyP999 = float64(ld.P999()) / 1e6
		}
		rows = append(rows, row)
	}
	return rows, nil
}
