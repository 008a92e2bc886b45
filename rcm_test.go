package rcm

import (
	"math"
	"testing"
)

func TestModelsRoster(t *testing.T) {
	ms := Models()
	if len(ms) != 5 {
		t.Fatalf("Models() returned %d entries", len(ms))
	}
	wantSystems := map[string]string{
		"tree":      "Plaxton",
		"hypercube": "CAN",
		"xor":       "Kademlia",
		"ring":      "Chord",
		"symphony":  "Symphony",
	}
	for _, m := range ms {
		if got := m.System(); got != wantSystems[m.Name()] {
			t.Errorf("%s: system %q, want %q", m.Name(), got, wantSystems[m.Name()])
		}
	}
}

func TestConstructorsMatchModels(t *testing.T) {
	sym, err := Symphony(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{Tree(), Hypercube(), XOR(), Ring(), sym} {
		r, err := m.Routability(16, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r <= 0 || r > 1 {
			t.Errorf("%s: r = %v", m.Name(), r)
		}
	}
}

func TestSymphonyValidation(t *testing.T) {
	if _, err := Symphony(1, 0); err == nil {
		t.Error("ks=0 accepted")
	}
	if _, err := Symphony(-1, 1); err == nil {
		t.Error("kn=-1 accepted")
	}
}

func TestRoutabilityHeadline(t *testing.T) {
	// The paper's headline numbers: at q=0.1 and eDonkey-like scale
	// (N=2^20), Kademlia keeps routing while Symphony(1,1) collapses.
	kad, err := XOR().Routability(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if kad < 0.9 {
		t.Errorf("kademlia at N=2^20, q=0.1: %v, want > 0.9", kad)
	}
	sym, err := Symphony(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	symR, err := sym.Routability(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if symR > 0.2 {
		t.Errorf("symphony at N=2^20, q=0.1: %v, want collapse", symR)
	}
}

func TestScalabilityVerdicts(t *testing.T) {
	want := map[string]Verdict{
		"tree":      Unscalable,
		"hypercube": Scalable,
		"xor":       Scalable,
		"ring":      Scalable,
		"symphony":  Unscalable,
	}
	for _, m := range Models() {
		v, reason := m.Scalability()
		if v != want[m.Name()] {
			t.Errorf("%s: verdict %v, want %v", m.Name(), v, want[m.Name()])
		}
		if reason == "" {
			t.Errorf("%s: empty reason", m.Name())
		}
		if num := m.ClassifyNumerically(0.2); num != v {
			t.Errorf("%s: numeric verdict %v disagrees with theory %v", m.Name(), num, v)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	tests := []struct {
		v    Verdict
		want string
	}{
		{Scalable, "scalable"},
		{Unscalable, "unscalable"},
		{Indeterminate, "indeterminate"},
		{Verdict(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Verdict(%d) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestSuccessProbAndReach(t *testing.T) {
	m := Hypercube()
	p, err := m.SuccessProb(16, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - 0.5) * (1 - 0.25) * (1 - 0.125)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("p(3, 0.5) = %v, want %v", p, want)
	}
	es, err := m.ExpectedReach(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(es-255) > 1e-6 {
		t.Errorf("E[S] at q=0, d=8 = %v, want 255", es)
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	res, err := Simulate(SimConfig{
		Protocol: "kademlia",
		Config:   Config{Bits: 10, Seed: 7},
		Q:        0.2,
		Pairs:    3000,
		Trials:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "kademlia" {
		t.Errorf("protocol = %q", res.Protocol)
	}
	if res.Routability <= 0.5 || res.Routability >= 1 {
		t.Errorf("routability = %v, want moderate", res.Routability)
	}
	// SimResult is sim.Result itself: the interval and tallies come along.
	if !(res.CI95Low <= res.Routability && res.Routability <= res.CI95High) || res.Pairs != 6000 || res.Trials != 2 {
		t.Errorf("CI [%v, %v] around %v, pairs=%d trials=%d", res.CI95Low, res.CI95High, res.Routability, res.Pairs, res.Trials)
	}
	if math.Abs(res.FailedPathPct-100*(1-res.Routability)) > 1e-9 {
		t.Errorf("failed%% inconsistent: %v vs r=%v", res.FailedPathPct, res.Routability)
	}
	// And it should sit near the analytic model.
	a, err := XOR().Routability(10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Routability-a) > 0.1 {
		t.Errorf("sim %v far from analytic %v", res.Routability, a)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{Protocol: "nope", Config: Config{Bits: 8}, Q: 0.1}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Simulate(SimConfig{Protocol: "chord", Config: Config{Bits: 0}, Q: 0.1}); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := Simulate(SimConfig{Protocol: "chord", Config: Config{Bits: 8}, Q: 2}); err == nil {
		t.Error("q=2 accepted")
	}
}

// TestNewProtocol: the facade constructor resolves both registry
// vocabularies and returns overlays carrying the message-level
// capabilities the live-node layer routes with.
func TestNewProtocol(t *testing.T) {
	for _, name := range []string{"chord", "ring", "kademlia", "xor"} {
		p, err := NewProtocol(name, Config{Bits: 4})
		if err != nil {
			t.Fatalf("NewProtocol(%q): %v", name, err)
		}
		if p.Space().Bits() != 4 {
			t.Errorf("%s: bits = %d, want 4", name, p.Space().Bits())
		}
		if _, ok := p.(Forwarder); !ok {
			t.Errorf("%s: does not implement Forwarder", name)
		}
		if _, ok := p.(Maintainer); !ok {
			t.Errorf("%s: does not implement Maintainer", name)
		}
	}
	if _, err := NewProtocol("warp", Config{Bits: 4}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := NewProtocol("chord", Config{}); err == nil {
		t.Error("zero bits accepted")
	}
}
