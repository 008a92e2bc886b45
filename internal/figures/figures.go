// Package figures regenerates every table and figure of the paper's
// evaluation (plus the extension experiments catalogued below) as
// textual tables. Each generator is pure given its options and seed, so the
// harness output is reproducible; cmd/figures renders the results and
// the repository benchmark's figures_all workload times them.
//
// Experiment index, one line per registered figure (the second column is
// its -fig name; a test holds the column to Names()):
//
//	E1  3           Fig. 1–3   worked 8-node hypercube example + exact enumeration
//	E2  chains      Fig. 4/5/8 Markov chains vs closed forms
//	E3  6a          Fig. 6(a)  analysis vs simulation: tree, hypercube, xor
//	E4  6b          Fig. 6(b)  analysis vs simulation: ring
//	E5  7a          Fig. 7(a)  asymptotic failed paths at N = 2^100
//	E6  7b          Fig. 7(b)  routability vs system size at q = 0.1
//	E7  scalability §5         scalability classification
//	E8  qxor        Eq. 6      Qxor exact vs approximation
//	E9  symphony    §1/§4.3.4  Symphony kn/ks design ablation
//	E10 percolation §1         percolation: connectivity vs routability
//	E11 churn       §1/§6      churn vs the static model: protocol × q_eff × maintenance,
//	                           message-level (the former E16 grid is folded in)
//	E12 pathlen     §1/§3      path lengths: analytic distance vs simulated hops, and
//	                           Markov-chain expected steps per successful route
//	E13 successors  §1         Chord successor-list ablation
//	E14 sparse      §6         non-fully-populated identifier spaces vs d_eff predictions
//	E15 base        §3         tree radix ablation at equal N, and base-16 decay with size
//	E17 eventcmp    §1/§6      analytic vs static-sim vs message-level event simulation
//	E18 lifetimecmp §1/§6      lookup performance vs lifetime family at equal q_eff
//	E19 hopdist     §4.3       hop-count distribution: Markov mixture vs eventsim vs
//	                           live cluster, chord and kademlia
//	E20 frontier    §1/§5      latency-vs-maintenance frontier: multi-hop vs single-hop
//	                           vs k-replication under exponential and heavy-tailed churn
//	E21 partition   §1/§4      routability during/after a deterministic 2-way partition
//	                           vs the static model at q=1/2, per protocol × k∈{1,3}
//
// The grid-shaped experiments (E3–E6, E11, E17–E21) construct declarative
// experiment plans and delegate execution to the public streaming runner
// in rcm/exp.
package figures

import (
	"fmt"
	"sort"

	"rcm/internal/table"
)

// Options tunes the expensive generators. The zero value reproduces the
// paper's operating points (N = 2^16 for Fig. 6) — see DefaultOptions.
type Options struct {
	// Bits is the identifier length for simulation experiments (default 16,
	// the paper's N = 2^16).
	Bits int
	// Pairs is the number of sampled pairs per simulated point (default 20000).
	Pairs int
	// Trials is the number of failure patterns per simulated point (default 3).
	Trials int
	// Seed drives all randomness (default 1).
	Seed uint64
}

// DefaultOptions returns the paper's operating points.
func DefaultOptions() Options {
	return Options{Bits: 16, Pairs: 20000, Trials: 3, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Bits <= 0 {
		o.Bits = d.Bits
	}
	if o.Pairs <= 0 {
		o.Pairs = d.Pairs
	}
	if o.Trials <= 0 {
		o.Trials = d.Trials
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Generator produces the tables for one experiment.
type Generator func(Options) ([]*table.Table, error)

// registry maps figure names to generators. Populated in init functions of
// the per-experiment files.
var registry = map[string]Generator{}

func register(name string, g Generator) {
	registry[name] = g
}

// Names returns the registered figure names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Generate runs the named experiment ("all" runs every one in name order).
func Generate(name string, opt Options) ([]*table.Table, error) {
	if name == "all" {
		var all []*table.Table
		for _, n := range Names() {
			ts, err := registry[n](opt)
			if err != nil {
				return nil, fmt.Errorf("figures: %s: %w", n, err)
			}
			all = append(all, ts...)
		}
		return all, nil
	}
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("figures: unknown figure %q (have %v)", name, Names())
	}
	ts, err := g(opt)
	if err != nil {
		return nil, fmt.Errorf("figures: %s: %w", name, err)
	}
	return ts, nil
}
