package main

import (
	"fmt"
	"hash/fnv"
	"io"

	"rcm/internal/dht"
	"rcm/internal/figures"
	"rcm/internal/markov"
	"rcm/internal/percolation"
	"rcm/overlay"
)

// paperFigures are the experiments of the paper itself; every other
// registered figure counts as an extension.
var paperFigures = map[string]bool{
	"3": true, "chains": true, "6a": true, "6b": true, "7a": true, "7b": true, "scalability": true, "qxor": true,
}

type figuresAll struct {
	names []string
	opt   figures.Options
	seed  uint64
	sz    sizes
}

func setupFigures(seed uint64, sz sizes) (instance, error) {
	f := &figuresAll{names: figures.Names(), opt: sz.figures, seed: seed, sz: sz}
	f.opt.Seed = seed
	warm := sz.figuresWarm
	warm.Seed = seed
	if _, err := figures.Generate("6a", warm); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *figuresAll) rep(tr *tracer, parent int32, i int) (repStats, error) {
	h := fnv.New64a()
	layer := map[string]float64{}
	empty := 0
	parts := make([]float64, 0, len(f.names))
	var err error
	// One Generate per registered name, in name order, is what
	// Generate("all") does; split so each figure gets its own span.
	wall, cpu := timed(tr, parent, "repetition", i, func(repSpan int32) {
		for _, name := range f.names {
			sec := tr.measure(repSpan, "figures.Generate "+name, i, func() {
				tables, gerr := figures.Generate(name, f.opt)
				if gerr != nil {
					err = gerr
					return
				}
				if len(tables) == 0 {
					empty++
				}
				for _, t := range tables {
					if t.NumRows() == 0 {
						empty++
					}
					io.WriteString(h, t.ASCII())
				}
			})
			if err != nil {
				return
			}
			parts = append(parts, sec)
			switch {
			case name == "6a" || name == "6b":
				layer["figures."+name+"_s"] = sec
				fallthrough
			case paperFigures[name]:
				layer["figures.paper_s"] += sec
			default:
				layer["figures.extension_s"] += sec
			}
			layer["figures.slowest_s"] = max(layer["figures.slowest_s"], sec)
		}
	})
	if err != nil {
		return repStats{}, err
	}
	return repStats{
		wall: wall, cpu: cpu, parts: parts, work: float64(len(f.names)),
		attempted: 1, failed: min(empty, 1), digest: h.Sum64(), layer: layer,
	}, nil
}

func (f *figuresAll) verify(reps []repStats) (int, []string) { return sameDigests(reps) }

func (f *figuresAll) probes(tr *tracer, parent int32) (map[string]float64, error) {
	out := make(map[string]float64)
	p, err := dht.New("chord", dht.Config{Bits: f.sz.percolationBits, Seed: f.seed})
	if err != nil {
		return nil, err
	}
	n := int(p.Space().Size())
	nodes := make([]overlay.ID, n)
	for i := range nodes {
		nodes[i] = overlay.ID(i)
	}
	alive := overlay.NewBitset(n)
	alive.FillRandomAlive(0.3, overlay.NewRNG(mix(f.seed, 1)))
	var st percolation.Stats
	out["percolation.components_ms"] = probe(tr, parent, "percolation.ComponentStats", f.sz.probeFor, func() {
		st = percolation.ComponentStats(p, nodes, alive)
	}) / 1e6
	if st.Alive == 0 {
		return nil, fmt.Errorf("percolation probe: no survivors")
	}
	out["markov.xor_chain_solve_us"] = probe(tr, parent, "markov.XORChain+AbsorptionProb", f.sz.probeFor, func() {
		c, ep, cerr := markov.XORChain(16, 0.3)
		if cerr == nil {
			_, cerr = c.AbsorptionProb(ep.Start, ep.Success)
		}
		if cerr != nil {
			err = cerr
		}
	}) / 1e3
	return out, err
}

func (f *figuresAll) close() {}
