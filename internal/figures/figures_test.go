package figures

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rcm"
	"rcm/internal/table"
)

// fastOpts keeps generator tests quick while exercising every code path.
func fastOpts() Options {
	return Options{Bits: 10, Pairs: 2000, Trials: 2, Seed: 1}
}

func cell(t *testing.T, tb *table.Table, row int, col string) string {
	t.Helper()
	for i, c := range tb.Columns() {
		if c == col {
			return tb.Row(row)[i]
		}
	}
	t.Fatalf("table %q has no column %q (have %v)", tb.Title(), col, tb.Columns())
	return ""
}

func cellF(t *testing.T, tb *table.Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tb, row, col), 64)
	if err != nil {
		t.Fatalf("cell %q/%q = %q not a float: %v", tb.Title(), col, cell(t, tb, row, col), err)
	}
	return v
}

func TestNamesComplete(t *testing.T) {
	want := []string{"3", "6a", "6b", "7a", "7b", "base", "chains", "churn", "frontier", "hopdist", "lifetimecmp", "partition", "pathlen", "percolation", "qxor", "scalability", "sparse", "successors", "symphony"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestExperimentIndexNamesEveryFigure: the package comment's experiment
// index has one E-numbered line per registered figure and none for a
// figure that is gone (it had fallen five behind).
func TestExperimentIndexNamesEveryFigure(t *testing.T) {
	src, err := os.ReadFile("figures.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage figures")
	indexed := map[string]string{} // -fig name → E-number
	numbers := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t(E\d+)\s+(\S+)\s`).FindAllStringSubmatch(doc, -1) {
		if indexed[m[2]] != "" || numbers[m[1]] {
			t.Errorf("index line %s %s repeats a figure or a number", m[1], m[2])
		}
		indexed[m[2]], numbers[m[1]] = m[1], true
	}
	for _, name := range Names() {
		if indexed[name] == "" {
			t.Errorf("figure %q has no line in figures.go's experiment index", name)
		}
		delete(indexed, name)
	}
	for name, e := range indexed {
		t.Errorf("experiment index line %s names %q, which is not a registered figure", e, name)
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", fastOpts()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFig3ExactAgreement(t *testing.T) {
	ts, err := Generate("3", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("fig3 produced %d tables", len(ts))
	}
	// The validation table's |diff| column must be at numeric noise level.
	valid := ts[1]
	for r := 0; r < valid.NumRows(); r++ {
		if diff := cellF(t, valid, r, "|diff|"); diff > 1e-12 {
			t.Errorf("row %d: exact enumeration differs from analytic by %v", r, diff)
		}
		ea := cellF(t, valid, r, "E[S] analytic")
		ee := cellF(t, valid, r, "E[S] exact")
		if ea != ee {
			t.Errorf("row %d: printed E[S] differ: %v vs %v", r, ea, ee)
		}
	}
}

func TestChainsAgreement(t *testing.T) {
	ts, err := Generate("chains", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if tb.NumRows() != 5*3*2 {
		t.Fatalf("chains rows = %d, want 30", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		if diff := cellF(t, tb, r, "|diff|"); diff > 1e-8 {
			t.Errorf("row %d: chain vs closed form diff %v", r, diff)
		}
	}
}

func TestFig6aShapes(t *testing.T) {
	ts, err := Generate("6a", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("fig6a tables = %d, want 3 (tree, hypercube, xor)", len(ts))
	}
	for _, tb := range ts {
		if tb.NumRows() != 19 { // q = 0..90% step 5
			t.Errorf("%s: rows = %d, want 19", tb.Title(), tb.NumRows())
		}
		// Failed paths start at 0 and end high; analytic within 12 points of
		// simulation everywhere (the paper's "great fit", plus noise head-room).
		for r := 0; r < tb.NumRows(); r++ {
			a := cellF(t, tb, r, "analytic failed %")
			s := cellF(t, tb, r, "simulated failed %")
			if diff := a - s; diff > 12 || diff < -12 {
				t.Errorf("%s row %d: analytic %v vs simulated %v", tb.Title(), r, a, s)
			}
		}
		first := cellF(t, tb, 0, "simulated failed %")
		last := cellF(t, tb, tb.NumRows()-1, "simulated failed %")
		if first != 0 {
			t.Errorf("%s: failed paths at q=0 is %v", tb.Title(), first)
		}
		if last < 50 {
			t.Errorf("%s: failed paths at q=0.9 only %v", tb.Title(), last)
		}
	}
}

func TestFig6bBoundRegimes(t *testing.T) {
	ts, err := Generate("6b", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	for r := 0; r < tb.NumRows(); r++ {
		q := cellF(t, tb, r, "q %")
		a := cellF(t, tb, r, "analytic failed %")
		s := cellF(t, tb, r, "simulated failed %")
		switch {
		case q <= 20:
			if d := a - s; d < -6 || d > 6 {
				t.Errorf("q=%v%%: tight regime violated: analytic %v vs sim %v", q, a, s)
			}
		case q >= 40 && q <= 80:
			// Analytic failed-paths is an upper bound here.
			if a < s-4 {
				t.Errorf("q=%v%%: analytic %v not an upper bound of sim %v", q, a, s)
			}
		}
	}
}

func TestFig7aStepFunctions(t *testing.T) {
	ts, err := Generate("7a", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if tb.NumRows() != 19 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// At q=5% (row 1) tree has failed >90% of paths at N=2^100 and is
	// effectively at 100% by q=10% (row 2) — the near-step shape of the
	// paper's curve. Symphony is even sharper.
	r := 1
	if v := cellF(t, tb, r, "tree failed %"); v < 90 {
		t.Errorf("tree at q=5%%: %v, want near 100 (step function)", v)
	}
	if v := cellF(t, tb, 2, "tree failed %"); v < 99 {
		t.Errorf("tree at q=10%%: %v, want >99", v)
	}
	if v := cellF(t, tb, r, "symphony failed %"); v < 95 {
		t.Errorf("symphony at q=5%%: %v, want near 100", v)
	}
	for _, col := range []string{"hypercube failed %", "xor failed %", "ring failed %"} {
		if v := cellF(t, tb, r, col); v > 15 {
			t.Errorf("%s at q=5%%: %v, want small", col, v)
		}
	}
}

func TestFig7bDecayAndPlateau(t *testing.T) {
	ts, err := Generate("7b", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	last := tb.NumRows() - 1
	if v := cellF(t, tb, last, "tree r%"); v > 5 {
		t.Errorf("tree at 2^100: %v%%, want decay to ~0", v)
	}
	if v := cellF(t, tb, last, "symphony r%"); v > 1 {
		t.Errorf("symphony at 2^100: %v%%, want ~0", v)
	}
	for _, col := range []string{"hypercube r%", "xor r%", "ring r%"} {
		first := cellF(t, tb, 0, col)
		end := cellF(t, tb, last, col)
		if end < 90 {
			t.Errorf("%s at 2^100: %v%%, want plateau >90%%", col, end)
		}
		if first-end > 5 {
			t.Errorf("%s decayed from %v to %v", col, first, end)
		}
	}
}

func TestScalabilityVerdictsAgree(t *testing.T) {
	ts, err := Generate("scalability", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	verdicts := ts[1]
	for r := 0; r < verdicts.NumRows(); r++ {
		num := cell(t, verdicts, r, "numeric verdict")
		paper := cell(t, verdicts, r, "paper verdict")
		if num != paper {
			t.Errorf("row %d: numeric %q vs paper %q", r, num, paper)
		}
	}
}

func TestQxorApproxTable(t *testing.T) {
	ts, err := Generate("qxor", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if tb.NumRows() != 24 {
		t.Fatalf("rows = %d, want 24", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		if e := cellF(t, tb, r, "exact"); e < 0 || e > 1 {
			t.Errorf("row %d: exact Q out of range: %v", r, e)
		}
	}
}

func TestSymphonyDesignMonotone(t *testing.T) {
	ts, err := Generate("symphony", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if tb.NumRows() != 16 {
		t.Fatalf("rows = %d, want 16", tb.NumRows())
	}
	// More shortcuts at fixed kn must not reduce max sustainable d.
	// Rows are ordered kn-major, ks-minor.
	for kn := 0; kn < 4; kn++ {
		prev := -1.0
		for ks := 0; ks < 4; ks++ {
			v := cellF(t, tb, kn*4+ks, "max d with r>=90%")
			if v < prev {
				t.Errorf("kn=%d ks=%d: max d %v below previous %v", kn+1, ks+1, v, prev)
			}
			prev = v
		}
	}
}

func TestPercolationCeiling(t *testing.T) {
	ts, err := Generate("percolation", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("tables = %d", len(ts))
	}
	ceiling := ts[0]
	for r := 0; r < ceiling.NumRows(); r++ {
		giant := cellF(t, ceiling, r, "giant component %")
		routed := cellF(t, ceiling, r, "simulated routability %")
		if routed > giant+2 { // sampling noise allowance
			t.Errorf("row %d: routability %v above connectivity ceiling %v", r, routed, giant)
		}
	}
	reach := ts[1]
	for r := 0; r < reach.NumRows(); r++ {
		re := cellF(t, reach, r, "mean reachable")
		co := cellF(t, reach, r, "mean connected")
		if re > co+1e-9 {
			t.Errorf("row %d: reachable %v exceeds connected %v", r, re, co)
		}
	}
}

// TestChurnGridCrossProduct pins the E11 table's shape: every
// protocol × q_eff ∈ {20, 33} × maintain ∈ {off, on}, in plan order, each
// off/on pair sharing its regime's static columns.
func TestChurnGridCrossProduct(t *testing.T) {
	ts, err := Generate("churn", Options{Bits: 8, Pairs: 1500, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("tables = %d, want 1", len(ts))
	}
	tb := ts[0]
	protocols := []string{"plaxton", "can", "kademlia", "chord", "symphony", "singlehop"}
	if tb.NumRows() != 4*len(protocols) {
		t.Fatalf("rows = %d, want %d", tb.NumRows(), 4*len(protocols))
	}
	for r := 0; r < tb.NumRows(); r++ {
		wantQ, wantMaintain := []string{"20", "33"}[r%4/2], []string{"off", "on"}[r%2]
		if p, q, m := cell(t, tb, r, "protocol"), cell(t, tb, r, "q_eff %"), cell(t, tb, r, "maintain"); p != protocols[r/4] || q != wantQ || m != wantMaintain {
			t.Errorf("row %d is %s/%s/%s, want %s/%s/%s", r, p, q, m, protocols[r/4], wantQ, wantMaintain)
		}
		if r%2 == 1 {
			for _, col := range []string{"static sim r%", "analytic r%", "online %"} {
				if off, on := cell(t, tb, r-1, col), cell(t, tb, r, col); off != on {
					t.Errorf("row %d %s: maintain on %s differs from off %s at one q_eff", r, col, on, off)
				}
			}
		}
	}
}

// TestChurnTable holds the E11 figure to its claim. With static tables,
// message-level lookup success under slow exponential churn reproduces the
// static simulation at q_eff, at both regimes, for the five paper
// protocols, and availability sits at 1 − q_eff. Maintenance never costs the table-based
// protocols success, changes nothing for can (no Maintainer), and shows up
// as a message bill; singlehop goes E20's way — its sweep clears rejoiners
// from views, so maintenance costs it lookups and an order of magnitude
// more messages than chord.
func TestChurnTable(t *testing.T) {
	ts, err := Generate("churn", Options{Bits: 10, Pairs: 8000, Trials: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	wantOnline := map[string]float64{"20": 80, "33": 100 * 2 / 3.0} // by q_eff %
	chordMaint := map[string]float64{}
	for r := 0; r < tb.NumRows(); r += 2 {
		proto, q := cell(t, tb, r, "protocol"), cell(t, tb, r, "q_eff %")
		off, on := cellF(t, tb, r, "event r%"), cellF(t, tb, r+1, "event r%")
		maint := cellF(t, tb, r+1, "maint/node/s")
		if m := cellF(t, tb, r, "maint/node/s"); m != 0 {
			t.Errorf("%s q_eff=%s: maintain off still sent %v maint/node/s", proto, q, m)
		}
		if online := cellF(t, tb, r, "online %"); online < wantOnline[q]-2 || online > wantOnline[q]+2 {
			t.Errorf("%s q_eff=%s: online %v%%, want %.1f ± 2", proto, q, online, wantOnline[q])
		}
		if proto == "singlehop" {
			if on >= off {
				t.Errorf("singlehop q_eff=%s: maintenance %v%% not below static views %v%% (E20's stale-view finding)", q, on, off)
			}
			if maint < 10*chordMaint[q] {
				t.Errorf("singlehop q_eff=%s: maintenance %v msgs/node/s not an order above chord's %v", q, maint, chordMaint[q])
			}
			continue
		}
		static := cellF(t, tb, r, "static sim r%")
		if diff := off - static; diff > 5 || diff < -5 {
			t.Errorf("%s q_eff=%s: event %v%% vs static sim %v%%, want within 5 pp", proto, q, off, static)
		}
		if proto == "can" {
			if on != off || maint != 0 {
				t.Errorf("can q_eff=%s: no Maintainer, yet maintain on gives %v%% at %v msgs vs %v%%", q, on, maint, off)
			}
			continue
		}
		if on < off-1 {
			t.Errorf("%s q_eff=%s: maintenance %v%% below static tables %v%%", proto, q, on, off)
		}
		if maint <= 0 {
			t.Errorf("%s q_eff=%s: maintenance on but no maintenance messages", proto, q)
		}
		if proto == "chord" {
			chordMaint[q] = maint
		}
	}
}

func TestGenerateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("generating every figure is slow")
	}
	ts, err := Generate("all", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) < 11 {
		t.Errorf("all produced %d tables", len(ts))
	}
	for _, tb := range ts {
		if tb.NumRows() == 0 {
			t.Errorf("table %q is empty", tb.Title())
		}
		if !strings.Contains(tb.ASCII(), "\n") {
			t.Errorf("table %q renders empty", tb.Title())
		}
	}
}

// TestStaticSampleIndependentOfHost is the property the static path
// promises: every simulated figure, and the facade's Simulate, is a
// function of (plan, seed) — not of how many cores the host schedules on.
// GOMAXPROCS is process-wide, so the test must not run in parallel.
func TestStaticSampleIndependentOfHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	opt := Options{Bits: 8, Pairs: 300, Trials: 2, Seed: 1}
	names := []string{"6a", "6b", "pathlen", "percolation", "sparse", "successors"}
	render := func() (map[string]string, rcm.SimResult) {
		out := make(map[string]string, len(names))
		for _, name := range names {
			tables, err := Generate(name, opt)
			if err != nil {
				t.Fatalf("figure %s: %v", name, err)
			}
			for _, tb := range tables {
				out[name] += tb.ASCII()
			}
		}
		res, err := rcm.Simulate(rcm.SimConfig{
			Protocol: "kademlia", Config: rcm.Config{Bits: 8, Seed: 1},
			Q: 0.3, Pairs: 300, Trials: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, res
	}

	runtime.GOMAXPROCS(1)
	figs1, sim1 := render()
	runtime.GOMAXPROCS(4)
	figs4, sim4 := render()

	for _, name := range names {
		if figs1[name] != figs4[name] {
			t.Errorf("figure %s differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", name, figs1[name], figs4[name])
		}
	}
	if sim1 != sim4 {
		t.Errorf("Simulate differs between GOMAXPROCS 1 and 4:\n%+v\nvs\n%+v", sim1, sim4)
	}
}
