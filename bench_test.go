// Package rcm_test (external so internal/figures' live-cluster figure,
// which imports the rcm facade through rcm/node, does not cycle back
// into the package under test).
package rcm_test

// Benchmark harness: one benchmark per paper artifact (see the experiment
// index in internal/figures/figures.go). Each BenchmarkFigNN regenerates the corresponding
// table/figure through internal/figures at a calibrated size; run
// cmd/figures for the full-scale (N = 2^16) regeneration with printed rows.
// Micro-benchmarks for the substrates follow the figure benches.
//
//	go test -bench=. -benchmem

import (
	"context"
	"testing"

	"rcm/exp"
	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/figures"
	"rcm/internal/markov"
	"rcm/internal/percolation"
	"rcm/internal/sim"
	"rcm/overlay"
)

// benchOpts keeps per-iteration cost reasonable while exercising the full
// generation pipeline of every experiment.
func benchOpts() figures.Options {
	return figures.Options{Bits: 12, Pairs: 4000, Trials: 2, Seed: 1}
}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	opt := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := figures.Generate(name, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || tables[0].NumRows() == 0 {
			b.Fatal("empty figure output")
		}
	}
}

// BenchmarkFig3 regenerates E1: the Fig. 1–3 worked example with exact
// enumeration over the 8-node hypercube.
func BenchmarkFig3(b *testing.B) { benchFigure(b, "3") }

// BenchmarkFig4And5And8Chains regenerates E2: the routing Markov chains of
// Fig. 4(a,b), 5(b), 8(a,b) solved against the closed forms.
func BenchmarkFig4And5And8Chains(b *testing.B) { benchFigure(b, "chains") }

// BenchmarkFig6a regenerates E3: failed paths vs q, analysis vs simulation
// for tree, hypercube and XOR.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFig6b regenerates E4: the ring lower bound vs simulation.
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }

// BenchmarkFig7a regenerates E5: the asymptotic failed-path curves at
// N = 2^100.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig7b regenerates E6: routability vs system size at q = 0.1.
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkScalabilityTable regenerates E7: the §5 Knopp-test evidence and
// verdicts.
func BenchmarkScalabilityTable(b *testing.B) { benchFigure(b, "scalability") }

// BenchmarkQxorApproximation regenerates E8: exact Eq. 6 vs the paper's
// approximation.
func BenchmarkQxorApproximation(b *testing.B) { benchFigure(b, "qxor") }

// BenchmarkSymphonyDesign regenerates E9: the kn/ks provisioning ablation.
func BenchmarkSymphonyDesign(b *testing.B) { benchFigure(b, "symphony") }

// BenchmarkPercolation regenerates E10: connectivity ceiling vs realized
// routability.
func BenchmarkPercolation(b *testing.B) { benchFigure(b, "percolation") }

// BenchmarkChurn regenerates E11: message-level churn steady states, with
// and without maintenance, vs the static model at q_eff.
func BenchmarkChurn(b *testing.B) { benchFigure(b, "churn") }

// BenchmarkPathLength regenerates E12: analytic vs chain vs simulated
// routing latency.
func BenchmarkPathLength(b *testing.B) { benchFigure(b, "pathlen") }

// BenchmarkSuccessorAblation regenerates E13: Chord successor-list sweep.
func BenchmarkSuccessorAblation(b *testing.B) { benchFigure(b, "successors") }

// BenchmarkSparseSpaces regenerates E14: non-fully-populated overlays vs
// effective-dimension predictions.
func BenchmarkSparseSpaces(b *testing.B) { benchFigure(b, "sparse") }

// BenchmarkRadixAblation regenerates E15: identifier radix vs tree
// resilience at equal N.
func BenchmarkRadixAblation(b *testing.B) { benchFigure(b, "base") }

// BenchmarkExpSweep times the unified experiment runner (rcm/exp) on a
// fig-6-sized analytic grid — the paper's 19-point q-grid across the
// Fig. 7(b) system sizes for all five geometries, ~1100 cells. The serial
// sub-benchmark is the reference path (one worker, no memoization, exactly
// the per-cell work the pre-runner CLIs did); the parallel sub-benchmark is
// the production configuration (all CPUs, shared prefix-product cache). The
// memoization alone makes the parallel runner several times faster even on
// one core, because the phase products Π(1−Q(m)) are shared across the
// whole (d, q) grid instead of being recomputed per cell.
func BenchmarkExpSweep(b *testing.B) {
	plan := exp.Plan{
		Name:  "bench-sweep",
		Specs: exp.AllSpecs(),
		Bits:  []int{10, 14, 17, 20, 24, 27, 30, 34, 40, 50, 70, 100, 140, 200},
		Qs:    exp.PaperQGrid(),
	}
	for _, cfg := range []struct {
		name string
		opts []exp.Option
	}{
		{"serial", []exp.Option{exp.WithWorkers(1), exp.WithoutMemo()}},
		{"parallel", nil},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// fresh caches every iteration
				rows, err := exp.Run(context.Background(), plan, cfg.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(plan.Specs)*len(plan.Bits)*len(plan.Qs) {
					b.Fatalf("rows = %d", len(rows))
				}
			}
		})
	}
}

// BenchmarkExpSweepSim times the runner on a simulation grid (the Fig. 6
// experiment shape at reduced size): overlay construction is shared across
// each protocol's q-column and cells execute across all CPUs.
func BenchmarkExpSweepSim(b *testing.B) {
	plan := exp.Plan{
		Name:  "bench-sweep-sim",
		Specs: exp.AllSpecs(),
		Bits:  []int{10},
		Qs:    exp.PaperQGrid(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Run(context.Background(), plan,
			exp.WithModes(exp.ModeSim),
			exp.WithPairs(1000), exp.WithTrials(1), exp.WithSimWorkers(1),
			exp.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkRoutabilityEval measures one full analytic r(N,q) evaluation per
// geometry at the paper's N = 2^16.
func BenchmarkRoutabilityEval(b *testing.B) {
	for _, g := range core.AllGeometries() {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Routability(g, 16, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoutabilityEvalAsymptotic measures the N = 2^100 regime of
// Fig. 7(a).
func BenchmarkRoutabilityEvalAsymptotic(b *testing.B) {
	for _, g := range core.AllGeometries() {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Routability(g, 100, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoute measures a single greedy route on a 2^14-node overlay at
// q=0.3 for each protocol.
func BenchmarkRoute(b *testing.B) {
	for _, name := range dht.ProtocolNames() {
		b.Run(name, func(b *testing.B) {
			p, err := dht.New(name, dht.Config{Bits: 14, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			s := p.Space()
			alive := overlay.NewBitset(int(s.Size()))
			rng := overlay.NewRNG(7)
			alive.FillRandomAlive(0.3, rng)
			srcs := make([]overlay.ID, 1024)
			dsts := make([]overlay.ID, 1024)
			for i := range srcs {
				srcs[i] = overlay.ID(rng.Uint64n(s.Size()))
				dsts[i] = overlay.ID(rng.Uint64n(s.Size()))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & 1023
				p.Route(srcs[k], dsts[k], alive)
			}
		})
	}
}

// BenchmarkOverlayConstruction measures routing-table construction at the
// paper's simulation size.
func BenchmarkOverlayConstruction(b *testing.B) {
	for _, name := range dht.ProtocolNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dht.New(name, dht.Config{Bits: 14, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStaticResilienceMeasurement measures one full Fig. 6 data point
// (20k pairs, 1 trial) on Chord.
func BenchmarkStaticResilienceMeasurement(b *testing.B) {
	p, err := dht.New("chord", dht.Config{Bits: 14, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureStaticResilience(p, 0.3, sim.Options{
			Pairs: 20000, Trials: 1, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovChainSolve measures building and solving the XOR chain of
// Fig. 5(b) at h=16.
func BenchmarkMarkovChainSolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, ep, err := markov.XORChain(16, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.AbsorptionProb(ep.Start, ep.Success); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseFailure measures a single Q(m) evaluation at m=64 per
// geometry (the inner loop of every analytic evaluation).
func BenchmarkPhaseFailure(b *testing.B) {
	for _, g := range core.AllGeometries() {
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.PhaseFailure(64, 64, 0.3)
			}
		})
	}
}

// BenchmarkComponentAnalysis measures union-find component extraction on a
// failed 2^14-node Chord overlay.
func BenchmarkComponentAnalysis(b *testing.B) {
	p, err := dht.New("chord", dht.Config{Bits: 14, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := int(p.Space().Size())
	nodes := make([]overlay.ID, n)
	for i := range nodes {
		nodes[i] = overlay.ID(i)
	}
	alive := overlay.NewBitset(n)
	alive.FillRandomAlive(0.3, overlay.NewRNG(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := percolation.ComponentStats(p, nodes, alive)
		if st.Alive == 0 {
			b.Fatal("no survivors")
		}
	}
}
