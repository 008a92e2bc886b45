package exp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"rcm/eventsim"
	"rcm/spec"
)

// Mode is a bitmask selecting which measurements each cell performs.
type Mode uint8

// Mode flags. They compose: ModeAnalytic|ModeSim is the "compare" layout of
// Fig. 6, ModeAnalytic|ModeSim|ModeEvent additionally scores the static
// model against message-level dynamics.
const (
	// ModeAnalytic evaluates the RCM closed forms (routability, failed-path
	// percentage, expected reach) at every grid point.
	ModeAnalytic Mode = 1 << iota
	// ModeSim measures static resilience on the concrete overlay.
	ModeSim
	// ModeEvent runs the message-level discrete-event simulator
	// (rcm/eventsim) for every Plan.Events entry, yielding one Row per time
	// bucket. Combined with ModeAnalytic/ModeSim, each event row also
	// carries the static predictions at the scenario's q_eff.
	ModeEvent

	modeAll = ModeAnalytic | ModeSim | ModeEvent
)

// String renders the mode as a "+"-joined flag list (e.g. "analytic+sim"),
// for logs and errors.
func (m Mode) String() string {
	if m == 0 {
		return "none"
	}
	var parts []string
	for _, f := range []struct {
		bit  Mode
		name string
	}{
		{ModeAnalytic, "analytic"},
		{ModeSim, "sim"},
		{ModeEvent, "event"},
	} {
		if m&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	if rest := m &^ modeAll; rest != 0 {
		parts = append(parts, fmt.Sprintf("invalid(%#x)", uint8(rest)))
	}
	return strings.Join(parts, "+")
}

// modeFlags is the name-keyed mode-flag table — an instance of the
// module's one registry-style spec grammar (rcm/spec), so mode flags get
// the same case folding, aliasing and unknown-name errors as transports,
// lifetime families and store specs. Flags take no argument; "none" is a
// first-class flag mapping to the zero Mode (String's rendering of it).
var modeFlags = func() *spec.Table[Mode] {
	t := spec.New[Mode]("exp", "mode flag")
	for _, reg := range []struct {
		name    string
		mode    Mode
		aliases []string
	}{
		{"analytic", ModeAnalytic, []string{"rcm"}},
		{"sim", ModeSim, []string{"static"}},
		{"event", ModeEvent, []string{"eventsim"}},
		{"none", 0, nil},
	} {
		m := reg.mode
		name := reg.name
		t.MustRegister(name, func(arg string) (Mode, error) {
			if arg != "" {
				return 0, fmt.Errorf("exp: mode flag %s takes no argument (got %q)", name, arg)
			}
			return m, nil
		}, reg.aliases...)
	}
	return t
}()

// ParseMode is the inverse of Mode.String: it parses a "+"-joined,
// case-insensitive, alias-aware flag list — "sim", "analytic+sim",
// "event+analytic" — into a Mode. "none" (String's rendering of the zero
// Mode) parses to 0, which Plan.Validate subsequently rejects. It backs
// the CLIs' -mode flags, so one spelling works everywhere.
func ParseMode(s string) (Mode, error) {
	var m Mode
	for _, part := range strings.Split(s, "+") {
		flag, err := modeFlags.Parse(part)
		if err != nil {
			return 0, err
		}
		m |= flag
	}
	return m, nil
}

// Plan declares an experiment grid: Specs × Bits × Qs grid cells (when the
// run mode has analytic or sim bits), then Specs × Bits × Events event
// cells (when the mode has ModeEvent). Everything about how the grid is
// executed — mode, seed, parallelism, sampling sizes — is a run option
// (WithModes, WithSeed, …), so one Plan value can be re-run under
// different regimes.
type Plan struct {
	// Name labels the plan; it is carried into every Row.
	Name string
	// Specs are the geometry/protocol pairs to sweep.
	Specs []Spec
	// Bits are the identifier lengths d (N = 2^d) to sweep.
	Bits []int
	// Qs are the node-failure probabilities to sweep.
	Qs []float64
	// Events lists the message-level runs executed under ModeEvent, each
	// in the event engine's own vocabulary: an eventsim.Config names the
	// scenario, its Params, the Transport, the Fault plan and every engine
	// knob, and yields Buckets rows per (spec, bits) cell. The runner pins
	// Protocol, Overlay and Seed per cell (from the Spec, Plan.Bits and
	// WithSeed), so whatever a plan sets there is ignored.
	Events []eventsim.Config
}

// Validate checks the plan is executable under the given mode.
func (p Plan) Validate(mode Mode) error {
	if len(p.Specs) == 0 {
		return errors.New("exp: plan has no geometry specs")
	}
	for _, s := range p.Specs {
		if s.Geometry == nil {
			return errors.New("exp: spec has nil geometry")
		}
	}
	if mode == 0 {
		return errors.New("exp: run has no mode")
	}
	if mode&^modeAll != 0 {
		return fmt.Errorf("exp: unknown mode bits %#x", uint8(mode))
	}
	if len(p.Bits) == 0 {
		return errors.New("exp: plan has no bits (system sizes)")
	}
	for _, d := range p.Bits {
		if d < 1 {
			return fmt.Errorf("exp: bits=%d out of range", d)
		}
	}
	if mode&(ModeAnalytic|ModeSim) != 0 && len(p.Qs) == 0 && mode&ModeEvent == 0 {
		return errors.New("exp: plan has no q grid")
	}
	for _, q := range p.Qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return fmt.Errorf("exp: q=%v out of [0,1]", q)
		}
	}
	if mode&ModeEvent != 0 && len(p.Events) == 0 {
		return errors.New("exp: event mode with no event settings")
	}
	for _, e := range p.Events {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	if mode&(ModeSim|ModeEvent) != 0 {
		for _, s := range p.Specs {
			if s.Protocol == "" {
				return fmt.Errorf("exp: spec %q has no protocol for sim/event mode", s.Geometry.Name())
			}
		}
	}
	return nil
}

// cellKind discriminates grid cells from event cells.
type cellKind uint8

const (
	gridCell cellKind = iota + 1
	eventCell
)

// cell is one unit of work for the runner.
type cell struct {
	kind  cellKind
	spec  Spec
	bits  int
	q     float64 // grid: the swept q; event: q_eff
	qIdx  int     // index into Plan.Qs (grid cells only)
	event eventsim.Config
}

// cellCount returns the total number of cells the plan expands to under
// the given mode, without materializing them. A grid cell yields one row;
// an event cell yields one row per time bucket.
func (p Plan) cellCount(mode Mode) int {
	n := 0
	if mode&(ModeAnalytic|ModeSim) != 0 {
		n += len(p.Specs) * len(p.Bits) * len(p.Qs)
	}
	if mode&ModeEvent != 0 {
		n += len(p.Specs) * len(p.Bits) * len(p.Events)
	}
	return n
}

// cellAt returns cell i of the plan's deterministic expansion order — grid
// cells spec-major, then bits, then q; event cells after all grid cells,
// spec-major, then bits, then setting order. Cells are derived
// arithmetically so a streaming run never materializes the grid.
func (p Plan) cellAt(mode Mode, i int) cell {
	if mode&(ModeAnalytic|ModeSim) != 0 {
		grid := len(p.Specs) * len(p.Bits) * len(p.Qs)
		if i < grid {
			qi := i % len(p.Qs)
			bi := (i / len(p.Qs)) % len(p.Bits)
			si := i / (len(p.Qs) * len(p.Bits))
			return cell{kind: gridCell, spec: p.Specs[si], bits: p.Bits[bi], q: p.Qs[qi], qIdx: qi}
		}
		i -= grid
	}
	ei := i % len(p.Events)
	bi := (i / len(p.Events)) % len(p.Bits)
	si := i / (len(p.Events) * len(p.Bits))
	e := p.Events[ei]
	return cell{kind: eventCell, spec: p.Specs[si], bits: p.Bits[bi], q: e.QEff(), event: e}
}
