package rcm_test

import (
	"fmt"
	"log"
	"math"

	"rcm"
)

// The basic analytic question: what fraction of surviving node pairs can
// still route at a given failure probability?
func ExampleModel_Routability() {
	r, err := rcm.XOR().Routability(16, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kademlia at N=2^16, q=0.3: %.3f\n", r)
	// Output: Kademlia at N=2^16, q=0.3: 0.755
}

// Definition 2: a geometry is scalable iff routability stays positive as
// N grows without bound.
func ExampleModel_Scalability() {
	for _, m := range rcm.Models() {
		v, _ := m.Scalability()
		fmt.Printf("%s: %s\n", m.Name(), v)
	}
	// Output:
	// tree: unscalable
	// hypercube: scalable
	// xor: scalable
	// ring: scalable
	// symphony: unscalable
}

// p(h,q) — the probability that a route of length h survives (Eq. 5). For
// the hypercube this is the paper's worked example, Fig. 3.
func ExampleModel_SuccessProb() {
	p, err := rcm.Hypercube().SuccessProb(3, 3, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p(3, 0.3) = %.6f\n", p)
	// Output: p(3, 0.3) = 0.619801
}

// Symphony's provisioning knob: more shortcuts rescue an unscalable
// geometry for any bounded deployment (§1).
func ExampleSymphony() {
	for _, ks := range []int{1, 2, 3} {
		m, err := rcm.Symphony(1, ks)
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.Routability(16, 0.1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ks=%d: %.2f\n", ks, r)
	}
	// Output:
	// ks=1: 0.21
	// ks=2: 1.00
	// ks=3: 1.00
}

// The eDonkey question (§1): as a transient population (q = 0.2) grows
// from a LAN to global scale, XOR routability stays flat while the basic
// small-world geometry collapses.
func ExampleModel_Routability_growth() {
	sym, err := rcm.Symphony(1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("log2 N  Kademlia r%  Symphony r%")
	for _, d := range []int{10, 14, 18, 22, 26, 30} {
		kad, err := rcm.XOR().Routability(d, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		sy, err := sym.Routability(d, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d  %-11.2f  %.2f\n", d, 100*kad, 100*sy)
	}
	// Output:
	// log2 N  Kademlia r%  Symphony r%
	// 10      90.43        10.26
	// 14      90.12        1.04
	// 18      90.07        0.06
	// 22      90.06        0.00
	// 26      90.06        0.00
	// 30      90.06        0.00
}

// Any registered name — geometry term, system name, or a user
// registration — resolves to a Model through the shared registry.
func ExampleModelFor() {
	m, err := rcm.ModelFor("chord", rcm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s routes on the %s geometry\n", m.System(), m.Name())
	// Output: Chord routes on the ring geometry
}

// Simulation of a concrete overlay under the static-resilience model. The
// overlay is constructed from the canonical Config shared with dht and
// rcm/exp.
func ExampleSimulate() {
	res, err := rcm.Simulate(rcm.SimConfig{
		Protocol: "chord",
		Config:   rcm.Config{Bits: 12, Seed: 1},
		Q:        0.3,
		Pairs:    20000,
		Trials:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Simulated routability tracks the analytic ring model (a lower bound).
	analytic, err := rcm.Ring().Routability(12, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("within 5 points of analysis: %v\n", res.Routability > analytic-0.05)
	// Output: within 5 points of analysis: true
}

// flatGeometry is a deliberately unscalable toy geometry: a constant
// per-phase failure probability, so Σ Q(m) diverges (Theorem 1). Defining
// a geometry takes five methods over built-in types; registering it makes
// it available to every layer by name (see examples/randchord for the
// full walkthrough including a concrete overlay).
type flatGeometry struct{}

func (flatGeometry) Name() string          { return "flat" }
func (flatGeometry) System() string        { return "Example" }
func (flatGeometry) MaxDistance(d int) int { return d }
func (flatGeometry) LogNodesAt(d, h int) float64 {
	if h < 1 || h > d {
		return math.Inf(-1)
	}
	return float64(h-1) * math.Ln2 // ring-like: n(h) = 2^(h-1)
}
func (flatGeometry) PhaseFailure(d, m int, q float64) float64 { return q / 2 }

// A user-defined geometry gets the full analytic surface through NewModel,
// including the Knopp-test scalability probe.
func ExampleNewModel() {
	m := rcm.NewModel(flatGeometry{})
	fmt.Printf("%s is %s\n", m.Name(), m.ClassifyNumerically(0.3))
	// Output: flat is unscalable
}
