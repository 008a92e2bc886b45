package figures

import (
	"context"
	"math"

	"rcm/eventsim"
	"rcm/exp"
)

// untilEnd is foldEvent's open upper bound: every window from `from` on.
const untilEnd = math.MaxFloat64

// eventWindow is one event cell's metrics folded over a time window, the
// shape every event figure tabulates: lookup cohorts add up, the
// completed-cohort means (hops, latency) are weighted by the completed
// count, and the per-window rates and the online fraction are averaged
// over the windows.
type eventWindow struct {
	started, completed  int
	sumHops, sumLatency float64 // completed-weighted
	sumMaint, sumRepair float64 // per window
	sumOnline           float64
	windows             int
}

func (w eventWindow) success() float64     { return float64(w.completed) / float64(w.started) }
func (w eventWindow) meanHops() float64    { return w.sumHops / float64(w.completed) }
func (w eventWindow) meanLatency() float64 { return w.sumLatency / float64(w.completed) }
func (w eventWindow) meanMaint() float64   { return w.sumMaint / float64(w.windows) }
func (w eventWindow) meanRepair() float64  { return w.sumRepair / float64(w.windows) }
func (w eventWindow) meanOnline() float64  { return w.sumOnline / float64(w.windows) }

// eventGrid is the experiment every event figure runs: specs × settings
// at one system size, through exp.Run. Rows arrive in plan order —
// spec-major, then setting, `buckets` rows per cell in time order.
type eventGrid struct {
	bits              int // opt.Bits capped at the figure's maxBits
	rows              []exp.Row
	settings, buckets int
}

// runEventGrid runs the figure's plan at min(opt.Bits, maxBits) bits: event
// cells run full message dynamics, so every figure caps the size that keeps
// it quick. All settings share one Buckets value.
func runEventGrid(name string, opt Options, maxBits int, specs []exp.Spec, settings []eventsim.Config, modes ...exp.Mode) (eventGrid, error) {
	g := eventGrid{bits: min(opt.Bits, maxBits), settings: len(settings), buckets: settings[0].Buckets}
	plan := exp.Plan{Name: name, Specs: specs, Bits: []int{g.bits}, Events: settings}
	var err error
	g.rows, err = exp.Run(context.Background(), plan,
		exp.WithModes(modes...),
		exp.WithPairs(opt.Pairs), exp.WithTrials(opt.Trials),
		exp.WithSeed(opt.Seed),
	)
	return g, err
}

// cell returns the rows of the cell (spec si, setting ei).
func (g eventGrid) cell(si, ei int) []exp.Row {
	return g.rows[(si*g.settings+ei)*g.buckets:][:g.buckets]
}

// foldEvent folds the rows of one event cell whose metric window starts in
// [from, to). Lookups are bucketed by start time, and a row's window
// starts where the previous row's ended (the first at 0).
func foldEvent(cell []exp.Row, from, to float64) eventWindow {
	var w eventWindow
	start := 0.0
	for _, r := range cell {
		in := start >= from-1e-9 && start < to-1e-9
		start = r.Time
		if !in {
			continue
		}
		w.sumMaint += r.EventMaintNodeS
		w.sumRepair += r.EventRepairNodeS
		w.sumOnline += r.EventOnline
		w.windows++
		if r.EventStarted == 0 {
			continue // EventSuccess is NaN for an empty cohort
		}
		w.started += r.EventStarted
		// The row carries the success share, not the count; the means are
		// NaN when the window completed nothing.
		completed := int(r.EventSuccess*float64(r.EventStarted) + 0.5)
		w.completed += completed
		if completed > 0 {
			w.sumHops += r.EventMeanHops * float64(completed)
			w.sumLatency += r.EventMeanLatency * float64(completed)
		}
	}
	return w
}
