package exp

import (
	"strings"
	"testing"

	"rcm/eventsim"
	"rcm/internal/core"
)

func TestSpecForAliases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		geometry string
		protocol string
	}{
		{"tree", "tree", "plaxton"},
		{"plaxton", "tree", "plaxton"},
		{"hypercube", "hypercube", "can"},
		{"can", "hypercube", "can"},
		{"xor", "xor", "kademlia"},
		{"kademlia", "xor", "kademlia"},
		{"ring", "ring", "chord"},
		{"chord", "ring", "chord"},
		{"symphony", "symphony", "symphony"},
		{"Chord", "ring", "chord"}, // case-insensitive
	} {
		s, err := SpecFor(tc.name, Config{})
		if err != nil {
			t.Fatalf("SpecFor(%q): %v", tc.name, err)
		}
		if s.Geometry.Name() != tc.geometry || s.Protocol != tc.protocol {
			t.Errorf("SpecFor(%q) = (%s, %s), want (%s, %s)",
				tc.name, s.Geometry.Name(), s.Protocol, tc.geometry, tc.protocol)
		}
	}
	if _, err := SpecFor("pastry", Config{}); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := SpecFor("symphony", Config{SymphonyShortcuts: -1}); err == nil {
		t.Error("symphony ks=-1 accepted")
	}
	if _, err := SpecFor("symphony", Config{SymphonyNear: -1}); err == nil {
		t.Error("symphony kn=-1 accepted")
	}
}

func TestSpecForSymphonyParams(t *testing.T) {
	s, err := SpecFor("symphony", Config{SymphonyNear: 2, SymphonyShortcuts: 3})
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := s.Geometry.(core.Symphony)
	if !ok {
		t.Fatalf("geometry %T, want core.Symphony", s.Geometry)
	}
	if sym.KN != 2 || sym.KS != 3 {
		t.Errorf("symphony params (%d,%d), want (2,3)", sym.KN, sym.KS)
	}
	if s.Overlay.SymphonyNear != 2 || s.Overlay.SymphonyShortcuts != 3 {
		t.Errorf("spec overlay config %+v does not carry kn/ks", s.Overlay)
	}
}

func TestAllSpecsOrder(t *testing.T) {
	specs := AllSpecs()
	want := []string{"plaxton", "can", "kademlia", "chord", "symphony"}
	if len(specs) != len(want) {
		t.Fatalf("AllSpecs len = %d, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.Protocol != want[i] {
			t.Errorf("spec %d protocol = %q, want %q", i, s.Protocol, want[i])
		}
	}
}

func TestPaperQGrid(t *testing.T) {
	qs := PaperQGrid()
	if len(qs) != 19 {
		t.Fatalf("grid has %d points, want 19", len(qs))
	}
	if qs[0] != 0 || qs[len(qs)-1] < 0.89 || qs[len(qs)-1] > 0.91 {
		t.Errorf("grid endpoints %v..%v", qs[0], qs[len(qs)-1])
	}
}

func TestPlanValidate(t *testing.T) {
	valid := Plan{
		Specs: AllSpecs(),
		Bits:  []int{10},
		Qs:    []float64{0.1},
	}
	if err := valid.Validate(ModeAnalytic); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name   string
		mode   Mode
		mutate func(*Plan)
		want   string
	}{
		{"no specs", ModeAnalytic, func(p *Plan) { p.Specs = nil }, "no geometry specs"},
		{"nil geometry", ModeAnalytic, func(p *Plan) { p.Specs = []Spec{{Protocol: "chord"}} }, "nil geometry"},
		{"no mode", 0, func(p *Plan) {}, "no mode"},
		{"bad mode", 1 << 7, func(p *Plan) {}, "unknown mode"},
		{"no bits", ModeAnalytic, func(p *Plan) { p.Bits = nil }, "no bits"},
		{"bad bits", ModeAnalytic, func(p *Plan) { p.Bits = []int{0} }, "out of range"},
		{"no qs", ModeAnalytic, func(p *Plan) { p.Qs = nil }, "no q grid"},
		{"bad q", ModeAnalytic, func(p *Plan) { p.Qs = []float64{1.5} }, "out of [0,1]"},
		{"sim without protocol", ModeSim, func(p *Plan) {
			p.Specs = []Spec{{Geometry: core.Tree{}}}
		}, "no protocol"},
	}
	for _, tc := range cases {
		p := valid
		tc.mutate(&p)
		err := p.Validate(tc.mode)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanCellOrder(t *testing.T) {
	p := Plan{
		Specs:  AllSpecs()[:2],
		Bits:   []int{8, 10},
		Qs:     []float64{0.1, 0.3},
		Events: []eventsim.Config{{Scenario: "churn"}, {Scenario: "churn", Maintain: true}},
	}
	mode := ModeAnalytic | ModeEvent
	// 2 specs × 2 bits × 2 qs grid + 2 specs × 2 bits × 2 event settings.
	if n := p.cellCount(mode); n != 16 {
		t.Fatalf("cellCount = %d, want 16", n)
	}
	cells := make([]cell, 0, 16)
	for i := 0; i < 16; i++ {
		cells = append(cells, p.cellAt(mode, i))
	}
	// Grid cells first, spec-major.
	if cells[0].kind != gridCell || cells[0].spec.Protocol != "plaxton" || cells[0].bits != 8 || cells[0].q != 0.1 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[7].kind != gridCell || cells[7].spec.Protocol != "can" || cells[7].bits != 10 || cells[7].q != 0.3 {
		t.Errorf("cell 7 = %+v", cells[7])
	}
	if cells[8].kind != eventCell || cells[8].spec.Protocol != "plaxton" || cells[8].event.Maintain {
		t.Errorf("cell 8 = %+v", cells[8])
	}
	if cells[15].kind != eventCell || cells[15].spec.Protocol != "can" || !cells[15].event.Maintain {
		t.Errorf("cell 15 = %+v", cells[15])
	}
}

func TestModeString(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want string
	}{
		{0, "none"},
		{ModeAnalytic, "analytic"},
		{ModeSim, "sim"},
		{ModeEvent, "event"},
		{ModeAnalytic | ModeSim, "analytic+sim"},
		{ModeAnalytic | ModeSim | ModeEvent, "analytic+sim+event"},
		{ModeEvent | 1<<6, "event+invalid(0x40)"},
	} {
		if got := tc.mode.String(); got != tc.want {
			t.Errorf("Mode(%#x).String() = %q, want %q", uint8(tc.mode), got, tc.want)
		}
	}
}
