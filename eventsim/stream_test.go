package eventsim

import (
	"math"
	"testing"

	"rcm/internal/dht"
)

// TestProgramIndex checks the shards' program indexes against the
// schedule they index: every item exactly once, in its node's shard;
// buckets in time order, each a whole number of lookaheads wide, with
// program order inside a bucket and least[k] the earliest time due at
// bucket k; and no more buckets than items, also for a program far
// sparser than Duration / lookahead.
func TestProgramIndex(t *testing.T) {
	churn, err := BuildSchedule(Config{Protocol: "chord", Overlay: OverlayConfig{Bits: 8}, Scenario: "churn", Params: Params{Rate: 300}, Duration: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sparse := &Schedule{
		Duration: 1000,
		Lookups:  []Lookup{{T: 0, Src: 1, Dst: 2}, {T: 999.5, Src: 4, Dst: 0}, {T: 3, Src: 1, Dst: 5}, {T: 3, Src: 7, Dst: 5}, {T: 640, Src: 2, Dst: 1}},
		Toggles:  []Toggle{{T: 3, Node: 1}, {T: 999.5, Node: 4, Up: true}, {T: 0, Node: 6}},
	}
	for _, c := range []struct {
		name  string
		sched *Schedule
	}{{"churn", churn}, {"sparse", sparse}} {
		for _, shards := range []int{1, 3} {
			e := &engine{cfg: Config{Duration: c.sched.Duration}, lookups: c.sched.Lookups, toggles: c.sched.Toggles, delta: 0.05, shards: make([]*shard, shards)}
			for i := range e.shards {
				e.shards[i] = &shard{id: i, eng: e}
			}
			e.indexPrograms()
			total := len(e.lookups) + len(e.toggles)
			seen := make([]bool, total)
			buckets := 0
			for s, sh := range e.shards {
				p := &sh.prog
				buckets += len(p.least)
				if len(p.off) != len(p.least)+1 {
					t.Fatalf("%s/shards=%d: shard %d has %d buckets and %d offsets", c.name, shards, s, len(p.least), len(p.off))
				}
				type placed struct {
					t float64
					k int
				}
				var all []placed
				prevMax := -1.0
				for k := range p.least {
					ids := p.ids[p.off[k]:p.off[k+1]]
					lo, hi := math.Inf(1), -1.0
					for i, id := range ids {
						it := e.programEvent(id)
						if seen[id] || e.shardOf(it.node) != s || it.seq != uint64(id) || i > 0 && id <= ids[i-1] {
							t.Fatalf("%s/shards=%d: item %d misplaced in shard %d bucket %d", c.name, shards, id, s, k)
						}
						seen[id] = true
						lo, hi = min(lo, it.t), max(hi, it.t)
						all = append(all, placed{it.t, k})
					}
					if len(ids) == 0 {
						next := math.Inf(1)
						if k+1 < len(p.least) {
							next = p.least[k+1]
						}
						if p.least[k] != next {
							t.Fatalf("%s/shards=%d: shard %d empty bucket %d is due at %v, the next at %v", c.name, shards, s, k, p.least[k], next)
						}
						continue
					}
					if lo <= prevMax || p.least[k] != lo {
						t.Fatalf("%s/shards=%d: shard %d bucket %d spans [%v, %v] after %v, least %v", c.name, shards, s, k, lo, hi, prevMax, p.least[k])
					}
					prevMax = hi
				}
				// Some whole number of lookaheads m is the bucket width:
				// every item sits in bucket ⌊t / (m·lookahead)⌋.
				fits := func(m int) bool {
					for _, a := range all {
						if int(a.t/(float64(m)*e.delta)) != a.k {
							return false
						}
					}
					return true
				}
				m := 1
				for ; m <= int(prevMax/e.delta)+1 && !fits(m); m++ {
				}
				if len(all) > 0 && !fits(m) {
					t.Fatalf("%s/shards=%d: shard %d buckets are no whole number of lookaheads wide", c.name, shards, s)
				}
			}
			if buckets > max(total, shards) {
				t.Fatalf("%s/shards=%d: %d buckets for %d items", c.name, shards, buckets, total)
			}
			for id, ok := range seen {
				if !ok {
					t.Fatalf("%s/shards=%d: item %d in no bucket", c.name, shards, id)
				}
			}
		}
	}
}

// TestWheelHoldsInFlightOnly bounds what the wheels' chunk stores grow to
// over a churn run with maintenance: the program enters the queues an
// epoch at a time, so they hold what is in flight, not the program. An
// engine that pushed the whole program before the clock started would
// grow its stores past the program's own length.
func TestWheelHoldsInFlightOnly(t *testing.T) {
	cfg := Config{
		Protocol: "chord",
		Overlay:  OverlayConfig{Bits: 10},
		Scenario: "churn",
		Params:   Params{MeanOnline: 1, MeanOffline: 0.25, Rate: 20000},
		Duration: 8, Shards: 2, Maintain: true, StabilizeEvery: 0.25, Seed: 3,
	}
	sched, err := BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dht.New(cfg.Protocol, OverlayConfig{Bits: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wheels []*wheelQueue
	if _, err := runOverlay(p, cfg, func(delta float64) eventQueue {
		w := newWheelQueue(delta)
		wheels = append(wheels, w)
		return w
	}); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, w := range wheels {
		held += int(w.store.size) * chunkCap
	}
	if program := len(sched.Lookups) + len(sched.Toggles); held > program/4 {
		t.Errorf("wheels grew to %d events for a program of %d, want ≤ a quarter of it", held, program)
	}
}
