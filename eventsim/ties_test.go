package eventsim

import (
	"math"
	"slices"
	"testing"

	"rcm/overlay"
)

// tiesScenario programs lookups and lifecycle toggles that share instants
// with each other, with the messages they cause and with the run's
// stabilization timers. The transport's lookahead is 1/16 and every
// instant is a multiple of 1/64, so latencies, retransmission deadlines
// and epoch boundaries (k/16) are all exact and fall on the same grid:
// each epoch boundary holds program items, each program item can tie with
// a message, and the equal-time order is decided by sequence numbers
// alone. tiesStabTicks adds the stabilization instants of TestTieOrderPinned's
// runs, so program items tie with the timers too.
const tiesScenario = "test-ties"

var tiesStabTicks []float64

func init() {
	err := RegisterScenario(tiesScenario, func(Params) (Scenario, error) {
		return scenarioFunc{name: tiesScenario, program: programTies}, nil
	})
	if err != nil {
		panic(err)
	}
}

func programTies(env *Env) error {
	n, rng := env.Nodes(), env.RNG()
	horizon := min(env.Duration(), 2)
	var at []float64
	for k := 0; float64(k)/64 <= horizon; k++ {
		at = append(at, float64(k)/64)
	}
	for _, t := range tiesStabTicks {
		if t <= horizon {
			at = append(at, t)
		}
	}
	slices.Sort(at)
	off := make([]bool, n)
	for i, t := range at {
		// Two lookups, the first one's source toggled at the same instant:
		// the lookup is programmed first, so it starts before the toggle.
		first := rng.Intn(n)
		for src := first; ; src = rng.Intn(n) {
			dst := rng.Intn(n)
			for dst == src {
				dst = rng.Intn(n)
			}
			env.LookupAt(t, src, dst)
			if src != first {
				break
			}
		}
		node := first
		if i%3 == 0 {
			node = rng.Intn(n)
		}
		if off[node] {
			env.JoinAt(t, node)
		} else {
			env.FailAt(t, node)
			if i%5 == 0 {
				// A down and an up of one node at one instant, in that order.
				env.JoinAt(t, node)
				continue
			}
		}
		off[node] = !off[node]
	}
	return nil
}

// stabTicks returns the stabilization instants up to horizon of a run at
// (seed, shards) over n nodes, every second node's, by replaying the
// engine's RNG layout: the scenario takes the root's first split, each
// shard the next one in shard order, and each shard's first draws are its
// nodes' timer phases, drawn in node order.
func stabTicks(seed uint64, n, shards int, every, horizon float64) []float64 {
	root := overlay.NewRNG(seed ^ 0x4556454e54)
	root.Split()
	rngs := make([]*overlay.RNG, shards)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	var ticks []float64
	for i := 0; i < n; i++ {
		phase := rngs[i%shards].Float64() * every
		if i%2 != 0 {
			continue
		}
		for t := phase; t <= horizon; t += every {
			ticks = append(ticks, t)
		}
	}
	return ticks
}

// TestTieOrderPinned holds a run whose program is dense with equal-time
// events — on epoch boundaries, against messages and against stabilization
// timers — to digests recorded before the engine streamed its program into
// the event queue. How and when the program reaches the queue must not
// change which of two equal-time events runs first.
func TestTieOrderPinned(t *testing.T) {
	const seed, bits, every = 5, 8, 0.25
	want := map[int]uint64{
		1: 0x5acbf834f36738fb,
		3: 0xd251e27ff5d7745c,
	}
	tiesStabTicks = nil
	for _, shards := range []int{1, 3} {
		tiesStabTicks = append(tiesStabTicks, stabTicks(seed, 1<<bits, shards, every, 2)...)
	}
	defer func() { tiesStabTicks = nil }()
	for _, shards := range []int{1, 3} {
		cfg := Config{
			Protocol:       "chord",
			Overlay:        OverlayConfig{Bits: bits},
			Scenario:       tiesScenario,
			Transport:      Constant{Latency: 1.0 / 16},
			Shards:         shards,
			Duration:       2,
			Buckets:        4,
			Seed:           seed,
			Maintain:       true,
			StabilizeEvery: every,
			Trace:          7,
		}
		res := mustRun(t, cfg)
		if tot := res.Totals(); tot.Started == 0 || tot.Failed == 0 || tot.MaintMessages == 0 || math.IsNaN(tot.Success()) {
			t.Fatalf("shards=%d: degenerate run %+v", shards, tot)
		}
		if got := resultDigest(t, res); got != want[shards] {
			t.Errorf("shards=%d: digest %016x, want %016x", shards, got, want[shards])
		}
	}
}
