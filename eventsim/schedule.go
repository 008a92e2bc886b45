package eventsim

import "fmt"

// Toggle is one scheduled node lifecycle transition of a Schedule.
type Toggle struct {
	// T is the simulated time of the transition.
	T float64
	// Node is the node index in [0, Nodes).
	Node int
	// Up reports the direction: true = join (come online), false = fail.
	Up bool
}

// Lookup is one scheduled lookup of a Schedule: at time T node Src looks up
// the key owned by node Dst.
type Lookup struct {
	T        float64
	Src, Dst int
}

// Schedule is a scenario program: the node lifecycle and lookup workload
// of one run, as Env writes it. It is the engine's only program — Run
// pre-schedules its events from exactly this value — and BuildSchedule
// hands the same value out, so other executors (the live-node cluster
// harness in rcm/node, most importantly) can replay the *identical* event
// sequence against a different substrate and compare outcomes, turning
// eventsim into a prediction the conformance suite pins real processes
// against.
type Schedule struct {
	// Nodes is the population N = 2^Overlay.Bits.
	Nodes int
	// Duration is the simulated horizon; every event time lies in [0,
	// Duration].
	Duration float64
	// Params is the scenario parameter set with defaults applied.
	Params Params
	// InitialOffline flags the nodes that start the run offline.
	InitialOffline []bool
	// Toggles are the lifecycle transitions in scenario-emission order
	// (per-node chronological; across nodes interleaved as the scenario
	// generated them — sort by T for a global timeline).
	Toggles []Toggle
	// Lookups are the scheduled lookups in scenario-emission order.
	Lookups []Lookup
}

// BuildSchedule programs the configured scenario and returns its
// schedule without running the simulation. The schedule is a pure
// function of (Scenario, Params, Seed, Duration, Overlay.Bits), and it is
// the very program Run executes for the same Config: both call one
// scenario-programming helper under the engine's RNG layout (root = Seed
// ^ "EVENT", scenario stream = first split).
func BuildSchedule(cfg Config) (*Schedule, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bits := cfg.Overlay.Bits
	if bits < 1 || bits > 30 {
		return nil, fmt.Errorf("eventsim: Overlay.Bits = %d out of [1,30]", bits)
	}
	s, _, _, err := programScenario(cfg, 1<<bits)
	return s, err
}

// OfflineAt reports whether node is offline at time t under the schedule —
// initial state plus every toggle at or before t, applied in time order
// (ties resolved by emission order, matching the engine's stable event
// ordering). It is O(|Toggles|); replay harnesses tracking state
// incrementally should fold toggles themselves.
func (s *Schedule) OfflineAt(node int, t float64) bool {
	off := s.InitialOffline[node]
	// Toggles are per-node chronological, so a linear scan keeping the last
	// transition at or before t is exact.
	for _, tg := range s.Toggles {
		if tg.Node == node && tg.T <= t {
			off = !tg.Up
		}
	}
	return off
}
