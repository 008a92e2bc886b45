package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"rcm/overlay"
	"rcm/spec"
)

// Window is a half-open interval [From, To) of simulation time during
// which a windowed fault clause is active.
type Window struct {
	From, To float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.From && t < w.To }

// Partition splits the population into Groups id-hash groups and
// blackholes every cross-group request while the window is active.
// Group membership is a pure function of (seed, node), so the simulator
// and a live cluster bound to the same seed agree on the cut.
type Partition struct {
	Groups int
	Window
}

// DelaySpike multiplies the delivered latency of every request by
// Factor while the window is active.
type DelaySpike struct {
	Factor float64
	Window
}

// Stall makes each node, with probability P, unresponsive for one
// exponentially distributed episode (mean Mean) starting at a uniform
// point in the bound horizon: the node stays alive — it keeps issuing
// its own lookups and receiving acknowledgements — but silently ignores
// incoming requests, which is precisely what churn-offline is not.
type Stall struct {
	P, Mean float64
}

// Plan is one composed fault schedule: at most one clause of each kind.
// The zero Plan injects nothing. Dup, Reorder and Corrupt are per-request
// probabilities, Corrupt being loss: the receiver drops the mangled
// request. Every clause applies to forward (request) traffic only —
// acknowledgements and responses are
// never faulted, which keeps the ACK-ownership invariant intact and is
// what a live node's forwarding step can reproduce exactly.
type Plan struct {
	Partition  *Partition
	DelaySpike *DelaySpike
	Dup        float64
	Reorder    float64
	Corrupt    float64
	Stall      *Stall
}

// clause is one parsed plan fragment: it writes its kind's part of the
// plan under construction.
type clause func(*Plan)

// clauses is the plan-fragment vocabulary, sharing the module's
// name[:arg] spec grammar: a plan is a comma list of clauses, each
// owning its argument text past the first ':'.
var clauses = spec.New[clause]("fault", "clause")

func init() {
	reg := []struct {
		name    string
		f       spec.Factory[clause]
		aliases []string
	}{
		{"partition", parsePartition, []string{"part"}},
		{"delayspike", parseDelaySpike, []string{"spike"}},
		{"dup", probClause("dup", func(p *Plan) *float64 { return &p.Dup }), []string{"duplicate"}},
		{"reorder", probClause("reorder", func(p *Plan) *float64 { return &p.Reorder }), nil},
		{"corrupt", probClause("corrupt", func(p *Plan) *float64 { return &p.Corrupt }), nil},
		{"stall", parseStall, nil},
	}
	for _, r := range reg {
		clauses.MustRegister(r.name, r.f, r.aliases...)
	}
}

// ClauseNames returns the registered clause names in registration order.
func ClauseNames() []string { return clauses.Names() }

// Parse parses a comma-separated fault plan, e.g.
// "partition:2@1-2,dup:0.1". The result is validated. A plan holds at
// most one clause of each kind, whatever the clause's value, and must
// inject something: "dup:0" is the empty plan, an error like "".
func Parse(s string) (Plan, error) {
	var p Plan
	var parts []string
	if strings.TrimSpace(s) != "" {
		parts = strings.Split(s, ",")
	}
	seen := map[string]bool{}
	for _, part := range parts {
		c, err := clauses.Parse(part)
		if err != nil {
			return Plan{}, err
		}
		name, _ := spec.Split(part)
		kind, _ := clauses.Canonical(name)
		if seen[kind] {
			return Plan{}, fmt.Errorf("fault: plan repeats the %s clause", kind)
		}
		seen[kind] = true
		c(&p)
	}
	if p.Empty() {
		return Plan{}, fmt.Errorf("fault: empty plan (have clauses %s)", strings.Join(clauses.Keys(), ", "))
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in canonical clause order; Parse(p.String())
// reproduces p exactly, so a run's output can name its plan by this
// spelling. The empty plan renders as "".
func (p Plan) String() string {
	var parts []string
	if pt := p.Partition; pt != nil {
		parts = append(parts, fmt.Sprintf("partition:%d@%s-%s", pt.Groups, ftoa(pt.From), ftoa(pt.To)))
	}
	if ds := p.DelaySpike; ds != nil {
		parts = append(parts, fmt.Sprintf("delayspike:%s@%s-%s", ftoa(ds.Factor), ftoa(ds.From), ftoa(ds.To)))
	}
	if p.Dup > 0 {
		parts = append(parts, "dup:"+ftoa(p.Dup))
	}
	if p.Reorder > 0 {
		parts = append(parts, "reorder:"+ftoa(p.Reorder))
	}
	if p.Corrupt > 0 {
		parts = append(parts, "corrupt:"+ftoa(p.Corrupt))
	}
	if st := p.Stall; st != nil {
		parts = append(parts, fmt.Sprintf("stall:%s:%s", ftoa(st.P), ftoa(st.Mean)))
	}
	return strings.Join(parts, ",")
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return p.Partition == nil && p.DelaySpike == nil &&
		p.Dup == 0 && p.Reorder == 0 && p.Corrupt == 0 && p.Stall == nil
}

// Validate checks every clause's parameter ranges.
func (p Plan) Validate() error {
	if pt := p.Partition; pt != nil {
		if pt.Groups < 2 {
			return fmt.Errorf("fault: partition into %d groups (need at least 2)", pt.Groups)
		}
		if err := validWindow("partition", pt.Window); err != nil {
			return err
		}
	}
	if ds := p.DelaySpike; ds != nil {
		if !(ds.Factor >= 1) || math.IsInf(ds.Factor, 0) {
			return fmt.Errorf("fault: delayspike factor %v must be a finite value >= 1", ds.Factor)
		}
		if err := validWindow("delayspike", ds.Window); err != nil {
			return err
		}
	}
	for _, pr := range []struct {
		name string
		p    float64
	}{{"dup", p.Dup}, {"reorder", p.Reorder}, {"corrupt", p.Corrupt}} {
		if pr.p < 0 || pr.p > 1 || math.IsNaN(pr.p) {
			return fmt.Errorf("fault: %s probability %v out of [0, 1]", pr.name, pr.p)
		}
	}
	if st := p.Stall; st != nil {
		if st.P < 0 || st.P > 1 || math.IsNaN(st.P) {
			return fmt.Errorf("fault: stall probability %v out of [0, 1]", st.P)
		}
		if !(st.Mean > 0) || math.IsInf(st.Mean, 0) {
			return fmt.Errorf("fault: stall mean %v must be a positive finite duration", st.Mean)
		}
	}
	return nil
}

func validWindow(name string, w Window) error {
	if math.IsNaN(w.From) || math.IsNaN(w.To) || math.IsInf(w.From, 0) || math.IsInf(w.To, 0) {
		return fmt.Errorf("fault: %s window %v-%v must be finite", name, w.From, w.To)
	}
	if w.From < 0 || w.To <= w.From {
		return fmt.Errorf("fault: %s window %v-%v: need 0 <= from < to", name, w.From, w.To)
	}
	return nil
}

// InflateMax returns the worst-case delivered latency under the plan for
// a message whose fault-free latency is at most max: reorder can hold a
// request for up to one extra max, and a delay spike multiplies the
// total. eventsim bounds its retransmission timeout by this (RTO >
// 2 x InflateMax of the transport's MaxLatency), so the RTO floor stays
// safe under every plan automatically.
func (p Plan) InflateMax(max float64) float64 {
	out := max
	if p.Reorder > 0 {
		out += max
	}
	if p.DelaySpike != nil {
		out *= p.DelaySpike.Factor
	}
	return out
}

// Boundaries returns the sorted, deduplicated window edges of the plan's
// globally windowed clauses (partition and delayspike). A live replay
// drains in-flight lookups before its virtual clock crosses one, so no
// lookup straddles a change of fault regime. Per-node stall episodes are
// seed-derived and not included.
func (p Plan) Boundaries() []float64 {
	var ts []float64
	if pt := p.Partition; pt != nil {
		ts = append(ts, pt.From, pt.To)
	}
	if ds := p.DelaySpike; ds != nil {
		ts = append(ts, ds.From, ds.To)
	}
	sort.Float64s(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// Bind fixes the plan's seed-derived choices — partition group
// membership and stall episodes — producing an Injector both executors
// can query. horizon is the schedule duration stall episodes are placed
// in (a non-positive horizon is treated as 1).
func (p Plan) Bind(seed uint64, horizon float64) *Injector {
	if !(horizon > 0) {
		horizon = 1
	}
	return &Injector{plan: p, seed: seed, horizon: horizon}
}

// Injector answers fault-plan queries as pure functions of
// (plan, seed, node identifiers, time): no internal state, no wall
// clock, safe for concurrent use. That holds for the probabilistic
// clauses too: Send flips the dup, reorder and corrupt coins of one
// request transmission from the seed and a key both executors derive
// from the schedule (Hop), so eventsim and a live replay make the same
// decision for the same transmission, not merely draw from the same
// distribution.
type Injector struct {
	plan    Plan
	seed    uint64
	horizon float64
}

const (
	partitionSalt = 0x504152544954 // "PARTIT"
	stallSalt     = 0x5354414c4c   // "STALL"
	coinSalt      = 0x434f494e     // "COIN"
)

// mix64 is one stateless splitmix64 output step — the same mixer
// overlay.RNG advances through, applied to a derived key so per-node
// group assignment costs no allocation on the engine's hot path.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Group returns node's partition group in [0, Groups); 0 when the plan
// has no partition clause.
func (in *Injector) Group(node uint64) uint64 {
	pt := in.plan.Partition
	if pt == nil {
		return 0
	}
	return mix64((in.seed+partitionSalt)^(node*0x9e3779b97f4a7c15)) % uint64(pt.Groups)
}

// StallWindow returns node's stall episode, if the stall clause selected
// it: the Bernoulli(P) pick, the uniform start in [0, horizon) and the
// Exp(Mean) duration all come from a seed-derived per-node stream, so
// sim and live agree on who stalls and when.
func (in *Injector) StallWindow(node uint64) (Window, bool) {
	st := in.plan.Stall
	if st == nil {
		return Window{}, false
	}
	r := overlay.NewRNG(mix64((in.seed + stallSalt) ^ (node * 0x9e3779b97f4a7c15)))
	if !r.Bernoulli(st.P) {
		return Window{}, false
	}
	from := r.Float64() * in.horizon
	return Window{From: from, To: from + r.Exp(st.Mean)}, true
}

// Hop keys one transmission of a request by what both executors know of
// it: the scheduled instant of its lookup, this hop's endpoints, the
// owner it is routed to, its hop count and this hop's try.
type Hop struct {
	T               float64
	From, To, Owner uint64
	Hops            uint16
	Try             uint8
}

// Fate is one transmission's fault decision (Send). A request across the
// cut of an open partition window is Cut, and meets no other clause. A
// corrupted request has Mask (non-zero) XORed into wire byte Byte (0–2:
// magic or version), a reordered one is held back by Hold ∈ [0, 1) of the
// executor's latency bound (0 when not reordered), and a duplicated one
// gets a second, faithful copy. Delay multiplies the delivered latency:
// the delay-spike factor inside its window, 1 outside it.
type Fate struct {
	Cut, Corrupt, Reorder, Dup bool
	Byte                       int
	Mask                       byte
	Hold, Delay                float64
}

// Send decides the fate of the request transmission h, sent at plan time
// now, and tallies it into n by Counts' rule. The partition is coin-free;
// then the corrupt, reorder and dup coins are each their own mix64
// output of the seed and h, so a plan without those clauses flips none.
func (in *Injector) Send(now float64, h Hop, n *Counts) Fate {
	pl, f := &in.plan, Fate{Delay: 1}
	if pt := pl.Partition; pt != nil && pt.Contains(now) && in.Group(h.From) != in.Group(h.To) {
		n.PartitionDrops++
		f.Cut = true
		return f
	}
	if ds := pl.DelaySpike; ds != nil && ds.Contains(now) {
		f.Delay = ds.Factor
	}
	if pl.Corrupt == 0 && pl.Reorder == 0 && pl.Dup == 0 {
		return f
	}
	k := in.seed + coinSalt
	for _, x := range [...]uint64{math.Float64bits(h.T), h.From, h.To, h.Owner, uint64(h.Hops)<<8 | uint64(h.Try)} {
		k = mix64(k ^ x)
	}
	coin := func(i uint64) uint64 { return mix64(k + i*0x9e3779b97f4a7c15) }
	unit := func(i uint64) float64 { return float64(coin(i)>>11) * 0x1p-53 }
	if f.Corrupt = unit(1) < pl.Corrupt; f.Corrupt {
		n.Corrupts++
		r := coin(2)
		f.Byte, f.Mask = int(r%3), byte(1+(r>>8)%255)
	}
	if f.Reorder = unit(3) < pl.Reorder; f.Reorder {
		f.Hold = unit(4)
		if !f.Corrupt {
			n.Reorders++ // a corrupted copy is lost, not late
		}
	}
	if f.Dup = unit(5) < pl.Dup; f.Dup {
		n.Dups++
	}
	return f
}

// Receive reports whether node takes in a request at plan time t: false
// inside its stall episode, whether or not the node is up, and the drop
// is tallied into n.
func (in *Injector) Receive(node uint64, t float64, n *Counts) bool {
	if w, ok := in.StallWindow(node); ok && w.Contains(t) {
		n.StallDrops++
		return false
	}
	return true
}

// Counts tallies injected faults by kind; executors accumulate one (per
// shard, per node) and sum with Add. Send and Receive are the one
// implementation of its tally rule, in the order a request meets the
// plan, counting a fault only on a copy the inner transport would have
// delivered: a request across the cut of an open partition window is
// dropped, duplicate and all, before any coin (PartitionDrops); then a
// corrupted copy (Corrupts), an intact copy held back (Reorders — a
// corrupted one is lost, not late), a duplicate (Dups); and at the
// receiver, at the lookup's scheduled instant, each intact copy ignored
// inside a stall episode, whether or not the node is up: the stall sits
// in front of its liveness (StallDrops).
type Counts struct {
	PartitionDrops uint64 // requests blackholed by the partition clause
	Dups           uint64 // duplicate copies delivered
	Reorders       uint64 // requests held back for extra latency
	Corrupts       uint64 // requests corrupted (rejected by the receiver's codec)
	StallDrops     uint64 // requests ignored by a stalled receiver
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.PartitionDrops += o.PartitionDrops
	c.Dups += o.Dups
	c.Reorders += o.Reorders
	c.Corrupts += o.Corrupts
	c.StallDrops += o.StallDrops
}

// String renders the non-zero tallies in a fixed order ("none" when all
// are zero).
func (c Counts) String() string {
	var parts []string
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"partition", c.PartitionDrops},
		{"dup", c.Dups},
		{"reorder", c.Reorders},
		{"corrupt", c.Corrupts},
		{"stall", c.StallDrops},
	} {
		if f.v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.name, f.v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// ---- clause factories ----

// cutRange splits "a-b" at the first '-' that is not an exponent sign,
// so "1e-3-2" parses as (1e-3, 2).
func cutRange(s string) (a, b string, ok bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '-' && s[i-1] != 'e' && s[i-1] != 'E' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// splitWindow parses the "<head>@<t0>-<t1>" argument shape shared by
// the windowed clauses, returning the head text and the window; headNoun
// names the head in errors ("groups", "factor").
func splitWindow(name, headNoun, arg string) (head string, w Window, err error) {
	head, rest, found := strings.Cut(arg, "@")
	if !found {
		return "", Window{}, fmt.Errorf("fault: %s argument %q: want %s:<%s>@<from>-<to>", name, arg, name, headNoun)
	}
	a, b, ok := cutRange(rest)
	if !ok {
		return "", Window{}, fmt.Errorf("fault: %s window %q: want <from>-<to>", name, rest)
	}
	w.From, err = strconv.ParseFloat(strings.TrimSpace(a), 64)
	if err != nil {
		return "", Window{}, fmt.Errorf("fault: %s window start %q: %v", name, a, err)
	}
	w.To, err = strconv.ParseFloat(strings.TrimSpace(b), 64)
	if err != nil {
		return "", Window{}, fmt.Errorf("fault: %s window end %q: %v", name, b, err)
	}
	return strings.TrimSpace(head), w, nil
}

// probClause is the factory of a single-probability clause, name:<p>,
// which sets the plan field that field selects.
func probClause(name string, field func(*Plan) *float64) spec.Factory[clause] {
	return func(arg string) (clause, error) {
		v, ok, err := spec.Float("fault", name, arg)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("fault: %s needs a probability argument (%s:<p>)", name, name)
		}
		return func(p *Plan) { *field(p) = v }, nil
	}
}

func parsePartition(arg string) (clause, error) {
	head, w, err := splitWindow("partition", "groups", arg)
	if err != nil {
		return nil, err
	}
	groups, err := strconv.Atoi(head)
	if err != nil {
		return nil, fmt.Errorf("fault: partition group count %q: %v", head, err)
	}
	return func(p *Plan) { p.Partition = &Partition{Groups: groups, Window: w} }, nil
}

func parseDelaySpike(arg string) (clause, error) {
	head, w, err := splitWindow("delayspike", "factor", arg)
	if err != nil {
		return nil, err
	}
	factor, err := strconv.ParseFloat(head, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: delayspike factor %q: %v", head, err)
	}
	return func(p *Plan) { p.DelaySpike = &DelaySpike{Factor: factor, Window: w} }, nil
}

func parseStall(arg string) (clause, error) {
	ps, ms, found := strings.Cut(arg, ":")
	if !found {
		return nil, fmt.Errorf("fault: stall argument %q: want stall:<p>:<mean>", arg)
	}
	pv, err := strconv.ParseFloat(strings.TrimSpace(ps), 64)
	if err != nil {
		return nil, fmt.Errorf("fault: stall probability %q: %v", ps, err)
	}
	mv, err := strconv.ParseFloat(strings.TrimSpace(ms), 64)
	if err != nil {
		return nil, fmt.Errorf("fault: stall mean %q: %v", ms, err)
	}
	return func(p *Plan) { p.Stall = &Stall{P: pv, Mean: mv} }, nil
}
