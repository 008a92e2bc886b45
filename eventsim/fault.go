package eventsim

import (
	"fmt"
	"strings"

	"rcm/fault"
	"rcm/overlay"
)

// Faulty wraps another transport with a fault plan (rcm/fault). The
// wrapper itself only models the inner latency/loss process — Sample
// delegates verbatim, so latency streams match the unwrapped transport
// draw for draw — while the engine, which knows each request's
// endpoints and send time, applies the plan's clauses itself: partition
// blackholes, delay spikes, duplication, reordering, corruption and
// per-node stalls, all billed into Result.Faults.
//
// Like the lossy transport, every clause faults forward (request)
// traffic only. MaxLatency reports the plan-inflated worst case
// (Plan.InflateMax), so the retransmission timeout and the
// RTO > 2 x MaxLatency validation stay safe with no extra
// configuration.
//
// A Faulty must be the outermost transport (it may wrap a Lossy, not
// the other way around): the engine finds the plan by inspecting
// Config.Transport. The spec spelling is
//
//	fault:<plan>[/<inner-transport>]
//
// e.g. fault:partition:2@1-2,dup:0.1/lossy:0.05:empirical — the '/'
// separates the comma-joined plan clauses (rcm/fault grammar) from the
// nested transport spec, which defaults to constant.
type Faulty struct {
	// Inner is the underlying latency model (Constant{} when nil).
	Inner Transport
	// Plan is the fault schedule; it must be valid and non-empty.
	Plan fault.Plan
}

func (f Faulty) inner() Transport {
	if f.Inner == nil {
		return Constant{}
	}
	return f.Inner
}

// Name implements Transport.
func (f Faulty) Name() string { return "fault+" + f.inner().Name() }

// MinLatency implements Transport: faults only ever add latency, so the
// inner bound stands and the engine's lookahead is unchanged.
func (f Faulty) MinLatency() float64 { return f.inner().MinLatency() }

// MaxLatency implements Transport: the inner bound inflated by the
// plan's worst case (reorder hold-back, delay-spike factor).
func (f Faulty) MaxLatency() float64 { return f.Plan.InflateMax(f.inner().MaxLatency()) }

// Sample implements Transport by delegating to the inner model; the
// engine layers the plan's clauses on top.
func (f Faulty) Sample(rng *overlay.RNG) (float64, bool) { return f.inner().Sample(rng) }

// containsFaulty reports whether tr is, or wraps, a Faulty transport —
// the engine only honors an outermost plan, so any other position is a
// configuration error.
func containsFaulty(tr Transport) bool {
	switch v := tr.(type) {
	case Faulty:
		return true
	case Lossy:
		return containsFaulty(v.inner())
	}
	return false
}

func init() {
	transports.MustRegister("fault", func(arg string) (Transport, error) {
		planStr, innerStr, _ := strings.Cut(arg, "/")
		if strings.TrimSpace(planStr) == "" {
			return nil, fmt.Errorf("eventsim: fault transport needs a plan (fault:<plan>[/<inner>])")
		}
		plan, err := fault.Parse(planStr)
		if err != nil {
			return nil, fmt.Errorf("eventsim: %w", err)
		}
		f := Faulty{Plan: plan}
		if strings.TrimSpace(innerStr) != "" {
			inner, err := ParseTransport(innerStr)
			if err != nil {
				return nil, err
			}
			f.Inner = inner
		}
		return f, validateTransport(f)
	}, "faults")
}
