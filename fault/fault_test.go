package fault

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"partition:2@1-2",
		"partition:3@0.5-2.5",
		"delayspike:4@1-3",
		"dup:0.1",
		"reorder:0.25",
		"corrupt:0.05",
		"stall:0.1:0.5",
		"partition:2@1-2,dup:0.1",
		"partition:2@1-2,delayspike:4@1-3,dup:0.1,reorder:0.2,corrupt:0.05,stall:0.1:0.5",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("round trip of %q drifted to %q", s, again.String())
		}
	}
}

func TestParseCanonicalizesAliasesAndOrder(t *testing.T) {
	p, err := Parse("dup:0.1, PART:2@1-2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "partition:2@1-2,dup:0.1"; got != want {
		t.Errorf("String() = %q, want canonical %q", got, want)
	}
}

func TestParseExponentWindow(t *testing.T) {
	p, err := Parse("partition:2@1e-3-2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Partition.From != 1e-3 || p.Partition.To != 2 {
		t.Errorf("window = %v-%v, want 0.001-2", p.Partition.From, p.Partition.To)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"", "empty plan"},
		{"warp:0.5", "unknown clause"},
		{"partition:2", "want partition:<groups>@<from>-<to>"},
		{"partition:1@1-2", "need at least 2"},
		{"partition:2@2-1", "need 0 <= from < to"},
		{"partition:2@-1-2", "need 0 <= from < to"},
		{"delayspike:0.5@1-2", "must be a finite value >= 1"},
		{"dup", "needs a probability"},
		{"dup:1.5", "out of [0, 1]"},
		{"reorder:-0.1", "out of [0, 1]"},
		{"corrupt:nope", "invalid syntax"},
		{"stall:0.1", "want stall:<p>:<mean>"},
		{"stall:0.1:0", "positive finite duration"},
		{"dup:0.1,dup:0.2", "repeats the dup clause"},
		{"partition:2@1-2,partition:2@3-4", "repeats the partition clause"},
		// A repeat is a repeat whatever the values and whichever comes first,
		// and a plan whose clauses all inject nothing is the empty plan.
		{"dup:0,dup:0.5", "repeats the dup clause"},
		{"dup:0.5,dup:0", "repeats the dup clause"},
		{"reorder:0,reorder:0.1", "repeats the reorder clause"},
		{"duplicate:0.1,dup:0.2", "repeats the dup clause"},
		{"dup:0", "empty plan"},
		{"dup:0,corrupt:0", "empty plan"},
	} {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", tc.in, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q does not contain %q", tc.in, err, tc.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero Plan should be Empty")
	}
	if (Plan{Dup: 0.1}).Empty() {
		t.Error("dup plan should not be Empty")
	}
	if got := (Plan{}).String(); got != "" {
		t.Errorf("empty plan String() = %q, want \"\"", got)
	}
}

func TestInflateMax(t *testing.T) {
	base := 0.05
	if got := (Plan{}).InflateMax(base); got != base {
		t.Errorf("no-clause InflateMax = %v, want %v", got, base)
	}
	p := Plan{Reorder: 0.5}
	if got := p.InflateMax(base); got != 2*base {
		t.Errorf("reorder InflateMax = %v, want %v", got, 2*base)
	}
	p = Plan{DelaySpike: &DelaySpike{Factor: 4, Window: Window{From: 1, To: 2}}}
	if got := p.InflateMax(base); got != 4*base {
		t.Errorf("delayspike InflateMax = %v, want %v", got, 4*base)
	}
	p = Plan{Reorder: 0.5, DelaySpike: &DelaySpike{Factor: 4, Window: Window{From: 1, To: 2}}}
	if got := p.InflateMax(base); got != 8*base {
		t.Errorf("combined InflateMax = %v, want %v", got, 8*base)
	}
}

func TestBoundaries(t *testing.T) {
	p, err := Parse("partition:2@1-2,delayspike:4@2-3")
	if err != nil {
		t.Fatal(err)
	}
	got := p.Boundaries()
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Boundaries() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Boundaries() = %v, want %v", got, want)
		}
	}
	if n := len((Plan{Dup: 0.5}).Boundaries()); n != 0 {
		t.Errorf("unwindowed plan has %d boundaries, want 0", n)
	}
}

func TestPartitionGroupsDeterministicAndBalanced(t *testing.T) {
	plan, err := Parse("partition:2@1-2")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Bind(7, 10)
	again := plan.Bind(7, 10)
	const n = 4096
	var inGroup0 int
	for node := uint64(0); node < n; node++ {
		g := inj.Group(node)
		if g >= 2 {
			t.Fatalf("Group(%d) = %d out of range", node, g)
		}
		if g != again.Group(node) {
			t.Fatalf("Group(%d) differs between two binds of the same (plan, seed)", node)
		}
		if g == 0 {
			inGroup0++
		}
	}
	// The id-hash split should be roughly even: a 4096-trial fair coin
	// stays within 4 sigma (±128) of n/2 essentially always.
	if inGroup0 < n/2-128 || inGroup0 > n/2+128 {
		t.Errorf("group 0 holds %d of %d nodes; id-hash split badly unbalanced", inGroup0, n)
	}
	// A different seed must cut differently.
	other := plan.Bind(8, 10)
	same := 0
	for node := uint64(0); node < n; node++ {
		if inj.Group(node) == other.Group(node) {
			same++
		}
	}
	if same == n {
		t.Error("seed change did not move any node across the cut")
	}
}

func TestCrossPartitionWindowed(t *testing.T) {
	plan, err := Parse("partition:2@1-2")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Bind(1, 10)
	// Find a cross-group pair.
	var src, dst uint64
	found := false
	for d := uint64(1); d < 256 && !found; d++ {
		if inj.Group(0) != inj.Group(d) {
			src, dst, found = 0, d, true
		}
	}
	if !found {
		t.Fatal("no cross-group pair in the first 256 ids")
	}
	cut := func(from, to uint64, now float64) bool {
		return inj.Send(now, Hop{From: from, To: to}, &Counts{}).Cut
	}
	if cut(src, dst, 0.5) {
		t.Error("partition active before its window")
	}
	if !cut(src, dst, 1.5) {
		t.Error("cross-group pair not cut inside the window")
	}
	if cut(src, dst, 2.0) {
		t.Error("partition active at the half-open window end")
	}
	if cut(src, src, 1.5) {
		t.Error("same-group pair cut")
	}
}

func TestDelayFactor(t *testing.T) {
	plan, err := Parse("delayspike:4@1-2")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Bind(1, 10)
	if got := inj.Send(0.5, Hop{}, &Counts{}).Delay; got != 1 {
		t.Errorf("Delay outside window = %v, want 1", got)
	}
	if got := inj.Send(1.5, Hop{}, &Counts{}).Delay; got != 4 {
		t.Errorf("Delay inside window = %v, want 4", got)
	}
}

func TestStallEpisodes(t *testing.T) {
	plan, err := Parse("stall:0.5:1")
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 10.0
	inj := plan.Bind(3, horizon)
	stalledAt := func(inj *Injector, node uint64, t float64) bool { return !inj.Receive(node, t, &Counts{}) }
	stalled := 0
	const n = 2048
	for node := uint64(0); node < n; node++ {
		w, ok := inj.StallWindow(node)
		if w2, ok2 := inj.StallWindow(node); ok2 != ok || w2 != w {
			t.Fatalf("StallWindow(%d) not deterministic", node)
		}
		if !ok {
			if stalledAt(inj, node, 5) {
				t.Fatalf("node %d stalled without an episode", node)
			}
			continue
		}
		stalled++
		if w.From < 0 || w.From >= horizon {
			t.Fatalf("node %d episode starts at %v outside [0, %v)", node, w.From, horizon)
		}
		if w.To <= w.From {
			t.Fatalf("node %d episode %v-%v empty", node, w.From, w.To)
		}
		if !stalledAt(inj, node, w.From) || stalledAt(inj, node, w.To) {
			t.Fatalf("node %d Receive disagrees with its own window", node)
		}
	}
	// Bernoulli(0.5) over 2048 nodes: 4 sigma is ±91.
	if stalled < n/2-91 || stalled > n/2+91 {
		t.Errorf("%d of %d nodes stalled; want about half", stalled, n)
	}
	// No stall clause: nothing stalls.
	none := Plan{Dup: 0.1}.Bind(3, horizon)
	if stalledAt(none, 1, 5) {
		t.Error("plan without stall clause stalled a node")
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	if c.String() != "none" {
		t.Errorf("zero Counts = %q", c.String())
	}
	c.Add(Counts{PartitionDrops: 2, Dups: 1})
	c.Add(Counts{Dups: 1, StallDrops: 3})
	if got, want := c.String(), "partition=2 dup=2 stall=3"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestCountsAreFieldwise: Add and String each spell every fault kind
// out. With random tallies, Add sums every field and String renders one
// name=value pair per non-zero field — so a kind added to Counts and
// forgotten in either fails here.
func TestCountsAreFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(c *Counts) {
		v := reflect.ValueOf(c).Elem()
		for f := 0; f < v.NumField(); f++ {
			if v.Field(f).Kind() != reflect.Uint64 {
				t.Fatalf("Counts.%s has type %s: teach this test (and Add, String) about it", v.Type().Field(f).Name, v.Field(f).Type())
			}
			v.Field(f).SetUint(1 + uint64(rng.Intn(1000)))
		}
	}
	var a, b Counts
	fill(&a)
	fill(&b)
	sum := a
	sum.Add(b)

	sv, av, bv := reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b)
	for f := 0; f < sv.NumField(); f++ {
		want := av.Field(f).Uint() + bv.Field(f).Uint()
		if got := sv.Field(f).Uint(); got != want {
			t.Errorf("after Add, Counts.%s = %d, want %d", sv.Type().Field(f).Name, got, want)
		}
	}
	pairs := strings.Fields(sum.String())
	if len(pairs) != sv.NumField() {
		t.Errorf("String() = %q renders %d kinds, Counts has %d", sum.String(), len(pairs), sv.NumField())
	}
	for f, pair := range pairs {
		if _, v, _ := strings.Cut(pair, "="); f < sv.NumField() && v != strconv.FormatUint(sv.Field(f).Uint(), 10) {
			t.Errorf("String() pair %d is %q, want Counts.%s = %d", f, pair, sv.Type().Field(f).Name, sv.Field(f).Uint())
		}
	}
	if got := (Counts{}).String(); got != "none" {
		t.Errorf("zero Counts renders %q, want none", got)
	}
}

// coinHop is the i-th of a family of distinct transmission keys, every
// field varying.
func coinHop(i int) Hop {
	return Hop{
		T: float64(i) * 1e-3, From: uint64(i % 128), To: uint64(i*7) % 128,
		Owner: uint64(i % 97), Hops: uint16(i % 11), Try: uint8(i % 3),
	}
}

// send is the fate of h sent at its lookup's instant, tallied nowhere.
func send(in *Injector, h Hop) Fate { return in.Send(h.T, h, &Counts{}) }

// TestCoinsDeterministic: two injectors bound to one seed — the two
// executors' — make equal decisions for every transmission, and another
// seed makes different ones.
func TestCoinsDeterministic(t *testing.T) {
	plan := Plan{Dup: 0.3, Reorder: 0.3, Corrupt: 0.3}
	a, b, other := plan.Bind(9, 10), plan.Bind(9, 10), plan.Bind(10, 10)
	same := 0
	for i := 0; i < 1000; i++ {
		h := coinHop(i)
		if send(a, h) != send(b, h) {
			t.Fatalf("hop %+v: %+v vs %+v under one seed", h, send(a, h), send(b, h))
		}
		if send(a, h) == send(other, h) {
			same++
		}
	}
	if same > 500 {
		t.Errorf("seeds 9 and 10 agree on %d of 1000 decisions", same)
	}
}

// TestCoinsKeyEveryField: changing any one field of the key — the try of
// a retransmission, the receiver of a failover, and every other — flips
// fresh coins. A reorder:1 plan draws a hold fraction for every
// transmission, so a re-draw shows as a different fraction.
func TestCoinsKeyEveryField(t *testing.T) {
	inj := Plan{Reorder: 1}.Bind(5, 10)
	for name, change := range map[string]func(*Hop){
		"T":     func(h *Hop) { h.T += 1e-3 },
		"From":  func(h *Hop) { h.From++ },
		"To":    func(h *Hop) { h.To++ },
		"Owner": func(h *Hop) { h.Owner++ },
		"Hops":  func(h *Hop) { h.Hops++ },
		"Try":   func(h *Hop) { h.Try++ },
	} {
		for i := 0; i < 100; i++ {
			h := coinHop(i)
			h2 := h
			change(&h2)
			if send(inj, h).Hold == send(inj, h2).Hold {
				t.Errorf("changing %s alone kept hop %+v's hold %v", name, h, send(inj, h).Hold)
			}
		}
	}
}

// TestCoinsRates: over n = 10^5 distinct transmissions each clause fires
// at its probability p ∈ {0.1, 0.3}: the count lies within 5 binomial
// standard deviations of n·p, a two-sided band that a fair coin leaves
// with probability α ≈ 5.7·10⁻⁷ per check. The decisions' payloads stay
// in range: a corrupt byte among the first three with a non-zero mask, a
// hold fraction in [0, 1).
func TestCoinsRates(t *testing.T) {
	const n = 100000
	for _, p := range []float64{0.1, 0.3} {
		inj := Plan{Dup: p, Reorder: p, Corrupt: p}.Bind(21, 10)
		var dups, reorders, corrupts float64
		for i := 0; i < n; i++ {
			c := send(inj, coinHop(i))
			if c.Dup {
				dups++
			}
			if c.Reorder {
				reorders++
				if c.Hold < 0 || c.Hold >= 1 {
					t.Fatalf("hold fraction %v outside [0, 1)", c.Hold)
				}
			}
			if c.Corrupt {
				corrupts++
				if c.Byte < 0 || c.Byte > 2 || c.Mask == 0 {
					t.Fatalf("corrupt byte %d mask %#x: want byte 0..2 and a non-zero mask", c.Byte, c.Mask)
				}
			}
		}
		band := 5 * math.Sqrt(n*p*(1-p))
		for name, got := range map[string]float64{"dup": dups, "reorder": reorders, "corrupt": corrupts} {
			if math.Abs(got-n*p) > band {
				t.Errorf("%s at p=%v: %v of %d, outside %v ± %.0f", name, p, got, n, n*p, band)
			}
		}
	}
}

// TestCoinsWithoutCoinClauses: a plan of partition, delay spike and
// stall flips no coin — outside both windows, the fault-free fate for
// every transmission.
func TestCoinsWithoutCoinClauses(t *testing.T) {
	plan, err := Parse("partition:2@1-2,delayspike:3@1-2,stall:1:1")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Bind(3, 10)
	for i := 0; i < 1000; i++ {
		if c := send(inj, coinHop(i)); c != (Fate{Delay: 1}) {
			t.Fatalf("hop %+v: %+v, want the zero decision", coinHop(i), c)
		}
	}
}

// TestSendTallyRule holds Send and Receive to the rule on Counts: what one
// transmission tallies and what fate it returns, for plans that set the
// rule's orderings against each other. A cut carries no coin even where
// every coin would fire; a corrupted copy is lost, not late; a duplicate
// of a corrupted primary counts both; the delay factor is 1 outside its
// window.
func TestSendTallyRule(t *testing.T) {
	for _, tc := range []struct {
		name, plan string
		now        float64
		want       Counts
		fate       Fate // compared without its coin payloads (Byte, Mask, Hold)
	}{
		{"cut carries no coin", "partition:2@1-2,corrupt:1,dup:1", 1.5, Counts{PartitionDrops: 1}, Fate{Cut: true, Delay: 1}},
		{"closed cut flips coins", "partition:2@1-2,corrupt:1,dup:1", 2.5, Counts{Corrupts: 1, Dups: 1}, Fate{Corrupt: true, Dup: true, Delay: 1}},
		{"corrupt is not late", "corrupt:1,reorder:1", 0, Counts{Corrupts: 1}, Fate{Corrupt: true, Reorder: true, Delay: 1}},
		{"intact copy is late", "reorder:1", 0, Counts{Reorders: 1}, Fate{Reorder: true, Delay: 1}},
		{"dup of a corrupt primary", "corrupt:1,dup:1", 0, Counts{Corrupts: 1, Dups: 1}, Fate{Corrupt: true, Dup: true, Delay: 1}},
		{"delay outside window", "delayspike:3@1-2,dup:1", 0.5, Counts{Dups: 1}, Fate{Dup: true, Delay: 1}},
		{"delay inside window", "delayspike:3@1-2,dup:1", 1.5, Counts{Dups: 1}, Fate{Dup: true, Delay: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			inj := pl.Bind(1, 10)
			to := uint64(1)
			for pl.Partition != nil && inj.Group(0) == inj.Group(to) {
				to++ // a pair across the cut
			}
			var n Counts
			got := inj.Send(tc.now, Hop{T: 0.25, From: 0, To: to, Owner: to}, &n)
			if n != tc.want {
				t.Errorf("tallied %+v, want %+v", n, tc.want)
			}
			got.Byte, got.Mask, got.Hold = 0, 0, 0
			if got != tc.fate {
				t.Errorf("fate %+v, want %+v", got, tc.fate)
			}
		})
	}

	inj := Plan{Stall: &Stall{P: 1, Mean: 1}}.Bind(3, 10)
	w, ok := inj.StallWindow(0)
	if !ok {
		t.Fatal("stall:1 left node 0 without an episode")
	}
	var n Counts
	if inj.Receive(0, w.From, &n) || n != (Counts{StallDrops: 1}) {
		t.Errorf("inside the episode: tallied %+v, want one stall drop", n)
	}
	if !inj.Receive(0, w.To, &n) || n != (Counts{StallDrops: 1}) {
		t.Errorf("after the episode: tallied %+v, want nothing more", n)
	}
}
