package eventsim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rcm/eventsim/lifetime"
	"rcm/overlay"
	"rcm/replica"
	"rcm/spec"
)

// Params is the flat knob set shared by the scenario library. Every field
// has a usable default (selected by zero); a scenario reads the fields it
// cares about and ignores the rest, so one Params value configures any
// registered scenario. User scenarios are free to reinterpret fields.
type Params struct {
	// Rate is the aggregate lookup arrival rate: lookups per time unit
	// across the whole overlay (default 500).
	Rate float64
	// ZipfS skews lookup targets: 0 (default) is uniform; s > 0 draws
	// targets from a Zipf(s) rank distribution over a random permutation
	// of the identifier space.
	ZipfS float64

	// FailFraction is the fraction of nodes that fail (massfail,
	// correlated). Unlike the other knobs it has no non-zero default:
	// zero fails nothing, making q = 0 runs directly expressible.
	FailFraction float64
	// FailTime is when the failure hits (default 30% of the duration).
	FailTime float64
	// Regions is the number of contiguous identifier regions the
	// correlated scenario kills (default 4).
	Regions int

	// MeanOnline and MeanOffline are the churn scenario's exponential
	// session parameters (defaults 1 and 0.25, the churn engine's).
	MeanOnline, MeanOffline float64

	// CrowdStart, CrowdDuration and CrowdFactor shape the flashcrowd: at
	// CrowdStart (default 30% of duration) the arrival rate multiplies by
	// CrowdFactor (default 10) for CrowdDuration (default 20% of the
	// duration), with a fraction Hot (default 0.8) of crowd lookups aimed
	// at one hot key.
	CrowdStart, CrowdDuration, CrowdFactor float64
	// Hot is the fraction of crowd-window lookups addressed to the hot key.
	Hot float64

	// Lifetime and Downtime select the session/downtime distribution
	// families of the lifetime-model scenarios (heavytail, diurnal,
	// tracechurn), as rcm/eventsim/lifetime Parse specs: "exp",
	// "pareto[:alpha]", "weibull[:shape]", "lognormal[:sigma]",
	// "trace:<file>". The scenario pins the family to MeanOnline /
	// MeanOffline, so families compare at equal mean online time. Empty
	// selects each scenario's documented default.
	Lifetime, Downtime string
	// DiurnalPeriod and DiurnalAmplitude shape the diurnal scenario:
	// session means drawn at time t are modulated by
	// 1 ± DiurnalAmplitude·sin(2πt/DiurnalPeriod) — online sessions
	// lengthen at the daily peak exactly when offline stretches shorten.
	// Defaults: period = half the duration, amplitude 0.6; the amplitude
	// must stay in [0, 1).
	DiurnalPeriod, DiurnalAmplitude float64

	// Replicas is the key replication factor k, a knob that rides on every
	// scenario rather than belonging to one: each key's copies live on the
	// k owners rcm/replica places for its root, a lookup succeeds when it
	// reaches any surviving owner (failing over in placement order), and
	// every churn toggle charges re-replication repair traffic. 0 and 1
	// both mean no replication; the cap is replica.MaxReplicas.
	Replicas int
}

// withDefaults fills zero fields with the documented defaults. Only an
// exact zero selects a default: negative and non-finite values are left
// in place so Validate rejects them descriptively instead of a bad knob
// silently becoming a default and producing a degenerate schedule.
func (p Params) withDefaults(duration float64) Params {
	if p.Rate == 0 {
		p.Rate = 500
	}
	if p.FailTime == 0 {
		p.FailTime = 0.3 * duration
	}
	if p.Regions == 0 {
		p.Regions = 4
	}
	if p.MeanOnline == 0 {
		p.MeanOnline = 1
	}
	if p.MeanOffline == 0 {
		p.MeanOffline = 0.25
	}
	if p.CrowdStart == 0 {
		p.CrowdStart = 0.3 * duration
	}
	if p.CrowdDuration == 0 {
		p.CrowdDuration = 0.2 * duration
	}
	if p.CrowdFactor == 0 {
		p.CrowdFactor = 10
	}
	if p.Hot == 0 {
		p.Hot = 0.8
	}
	if p.DiurnalPeriod == 0 {
		p.DiurnalPeriod = 0.5 * duration
	}
	if p.DiurnalAmplitude == 0 {
		p.DiurnalAmplitude = 0.6
	}
	return p
}

// Validate rejects parameter values outside their documented domains.
// Zero values are always allowed — they select the defaults.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Rate", p.Rate}, {"ZipfS", p.ZipfS}, {"FailTime", p.FailTime},
		{"MeanOnline", p.MeanOnline}, {"MeanOffline", p.MeanOffline},
		{"CrowdStart", p.CrowdStart}, {"CrowdDuration", p.CrowdDuration},
		{"CrowdFactor", p.CrowdFactor},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("eventsim: %s = %v must be a finite value >= 0 (zero selects the default)", f.name, f.v)
		}
	}
	if p.FailFraction < 0 || p.FailFraction > 1 || math.IsNaN(p.FailFraction) {
		return fmt.Errorf("eventsim: FailFraction = %v out of [0,1]", p.FailFraction)
	}
	if p.Hot < 0 || p.Hot > 1 || math.IsNaN(p.Hot) {
		return fmt.Errorf("eventsim: Hot = %v out of [0,1]", p.Hot)
	}
	if p.Regions < 0 {
		return fmt.Errorf("eventsim: Regions = %d must be >= 0", p.Regions)
	}
	if p.DiurnalPeriod < 0 || math.IsNaN(p.DiurnalPeriod) || math.IsInf(p.DiurnalPeriod, 0) {
		return fmt.Errorf("eventsim: DiurnalPeriod = %v must be a finite value >= 0 (zero selects the default)", p.DiurnalPeriod)
	}
	if p.DiurnalAmplitude < 0 || p.DiurnalAmplitude >= 1 || math.IsNaN(p.DiurnalAmplitude) {
		return fmt.Errorf("eventsim: DiurnalAmplitude = %v out of [0,1) — an amplitude of 1 or more drives session means to zero or negative", p.DiurnalAmplitude)
	}
	if err := replica.ValidateK(p.Replicas); err != nil {
		return fmt.Errorf("eventsim: Replicas: %w", err)
	}
	for _, f := range []struct {
		name, spec string
	}{{"Lifetime", p.Lifetime}, {"Downtime", p.Downtime}} {
		if f.spec == "" {
			continue
		}
		// Trace specs are checked for shape only: the scenario factory
		// loads the file exactly once at construction, so parsing it here
		// too would double the I/O and open a window for the file to
		// change between validation and use.
		if fam, arg, _ := strings.Cut(strings.ToLower(strings.TrimSpace(f.spec)), ":"); fam == "trace" {
			if strings.TrimSpace(arg) == "" {
				return fmt.Errorf("eventsim: %s: lifetime: trace requires a file path, e.g. trace:sessions.txt", f.name)
			}
			continue
		}
		if _, err := ParseLifetime(f.spec); err != nil {
			return fmt.Errorf("eventsim: %s: %w", f.name, err)
		}
	}
	return nil
}

// EffectiveOffline returns the steady-state offline fraction the named
// scenario converges to after its disturbance — the static model's
// equivalent failure probability q_eff, used by rcm/exp to place analytic
// and static-simulation comparison columns next to event measurements.
// Scenarios without failures (flashcrowd, zipf, unknown names) return 0.
func (p Params) EffectiveOffline(scenario string, duration float64) float64 {
	p = p.withDefaults(duration)
	// Resolve aliases (fail, daily, pareto-churn, trace-replay, ...) to
	// canonical names so every accepted spelling yields the same q_eff.
	if canon, ok := CanonicalScenario(scenario); ok {
		scenario = canon
	}
	switch strings.ToLower(strings.TrimSpace(scenario)) {
	case "massfail", "correlated":
		if p.FailTime > duration {
			return 0
		}
		// For correlated this is the *requested* failure mass: the
		// independently-placed regions can overlap, so the realized
		// offline fraction is at most FailFraction (the expected union is
		// 1-(1-FailFraction/Regions)^Regions). The comparison columns
		// treat the requested mass as q_eff, matching how the scenario is
		// parameterized.
		return p.FailFraction
	case "churn", "heavytail", "tracechurn":
		// The long-run offline fraction of an on/off renewal process is
		// E[off]/(E[on]+E[off]) for *any* session-time distribution with
		// finite means (renewal-reward), so q_eff is shared by every
		// lifetime family at equal means — which is exactly what makes the
		// heavy-tail deviations the equilibrium conformance suite measures
		// attributable to the lifetime shape, not to a different q_eff.
		return p.MeanOffline / (p.MeanOnline + p.MeanOffline)
	case "diurnal":
		// The modulation does not average out: the instantaneous offline
		// fraction q(t) = off(t)/(on(t)+off(t)) is nonlinear in the
		// oppositely-modulated means, so by Jensen the period average
		// exceeds the unmodulated ratio. Integrate q(t) over one period
		// numerically — the quasi-static approximation, exact in the
		// fast-churn limit where sessions are short against the period.
		a := p.DiurnalAmplitude
		const steps = 512
		sum := 0.0
		for i := 0; i < steps; i++ {
			s := math.Sin(2 * math.Pi * float64(i) / steps)
			on := p.MeanOnline * (1 + a*s)
			off := p.MeanOffline * (1 - a*s)
			sum += off / (on + off)
		}
		return sum / steps
	default:
		return 0
	}
}

// Env is the scheduling surface a Scenario programs against: node
// lifecycle (initial state, failures, joins, churn processes) and workload
// (lookups). All methods must be called from Program, before the run
// starts; events scheduled outside [0, Duration] are rejected with an
// error from Run. The RNG is the scenario's own deterministic stream.
type Env struct {
	nodes    int
	duration float64
	params   Params
	rng      *overlay.RNG

	initialOffline []bool
	toggles        []scheduledToggle
	lookups        []scheduledLookup
	err            error
}

type scheduledToggle struct {
	t    float64
	node uint32
	up   bool
}

type scheduledLookup struct {
	t        float64
	src, dst uint32
}

// Nodes returns the overlay population N = 2^bits.
func (env *Env) Nodes() int { return env.nodes }

// Duration returns the total simulated time.
func (env *Env) Duration() float64 { return env.duration }

// Params returns the run's scenario parameters with defaults applied.
func (env *Env) Params() Params { return env.params }

// RNG returns the scenario's deterministic random stream.
func (env *Env) RNG() *overlay.RNG { return env.rng }

func (env *Env) checkNode(node int) bool {
	if node < 0 || node >= env.nodes {
		env.fail(fmt.Errorf("node %d out of [0,%d)", node, env.nodes))
		return false
	}
	return true
}

func (env *Env) checkTime(t float64) bool {
	if t < 0 || t > env.duration || math.IsNaN(t) {
		env.fail(fmt.Errorf("event time %v out of [0,%v]", t, env.duration))
		return false
	}
	return true
}

func (env *Env) fail(err error) {
	if env.err == nil {
		env.err = err
	}
}

// SetOffline makes node start the run offline (all nodes start online by
// default).
func (env *Env) SetOffline(node int) {
	if env.checkNode(node) {
		env.initialOffline[node] = true
	}
}

// FailAt schedules node to go offline at time t.
func (env *Env) FailAt(t float64, node int) {
	if env.checkTime(t) && env.checkNode(node) {
		env.toggles = append(env.toggles, scheduledToggle{t: t, node: uint32(node), up: false})
	}
}

// JoinAt schedules node to come online at time t (triggering Maintainer
// join maintenance when the run has maintenance enabled).
func (env *Env) JoinAt(t float64, node int) {
	if env.checkTime(t) && env.checkNode(node) {
		env.toggles = append(env.toggles, scheduledToggle{t: t, node: uint32(node), up: true})
	}
}

// ChurnNode gives node an exponential on/off lifecycle over the whole run:
// the initial state is drawn from the steady-state online fraction, and
// alternating sessions are pre-scheduled until the duration is covered.
// Because the exponential is memoryless, the resulting process is exactly
// stationary — the equilibrium regime the paper's churn model assumes.
func (env *Env) ChurnNode(node int, meanOnline, meanOffline float64) {
	if meanOnline <= 0 || meanOffline <= 0 {
		env.fail(fmt.Errorf("churn means (%v, %v) must be positive", meanOnline, meanOffline))
		return
	}
	// The exponential Dist consumes exactly one rng.Exp per session, so
	// delegating keeps the RNG stream — and therefore every existing churn
	// run — bit-identical.
	on, err := lifetime.Exponential{}.Dist(meanOnline)
	if err != nil {
		env.fail(err)
		return
	}
	off, err := lifetime.Exponential{}.Dist(meanOffline)
	if err != nil {
		env.fail(err)
		return
	}
	env.ChurnNodeDist(node, on, off)
}

// ChurnNodeDist is ChurnNode generalized over lifetime distributions: an
// alternating renewal process whose online sessions and offline stretches
// are drawn from arbitrary positive-duration distributions (see
// rcm/eventsim/lifetime). The initial state is Bernoulli on the
// steady-state online fraction E[on]/(E[on]+E[off]); the first interval is
// drawn from the ordinary (not the equilibrium residual-life)
// distribution, so heavy-tailed processes start *out* of equilibrium —
// deliberately: the slow relaxation toward the renewal-reward steady state
// is precisely the dynamics the static q_eff summary cannot see, and the
// equilibrium conformance suite measures that gap.
func (env *Env) ChurnNodeDist(node int, online, offline lifetime.Dist) {
	if !env.checkNode(node) {
		return
	}
	if online == nil || offline == nil {
		env.fail(fmt.Errorf("churn lifetime distributions must be non-nil"))
		return
	}
	mOn, mOff := online.Mean(), offline.Mean()
	if !(mOn > 0) || !(mOff > 0) || math.IsInf(mOn, 0) || math.IsInf(mOff, 0) {
		env.fail(fmt.Errorf("churn means (%v, %v) must be positive and finite", mOn, mOff))
		return
	}
	on := env.rng.Bernoulli(mOn / (mOn + mOff))
	if !on {
		env.SetOffline(node)
	}
	env.churnSchedule(node, on, func(on bool, _ float64) (float64, string) {
		if on {
			return online.Sample(env.rng), online.Name()
		}
		return offline.Sample(env.rng), offline.Name()
	})
}

// churnSchedule drives one node's alternating renewal lifecycle: draw is
// called with the current state and the session's start time and returns
// the next duration plus a label for errors. It is the shared guarded
// loop under ChurnNodeDist and the diurnal scenario's time-modulated
// variant — a non-positive or NaN duration (a misbehaving lifetime
// implementation) fails the schedule descriptively instead of spinning
// or silently truncating the node's lifecycle.
func (env *Env) churnSchedule(node int, on bool, draw func(on bool, t float64) (float64, string)) {
	t := 0.0
	for t <= env.duration {
		d, name := draw(on, t)
		if !(d > 0) || math.IsNaN(d) || math.IsInf(d, 0) {
			env.fail(fmt.Errorf("lifetime %s sampled a non-positive duration %v for node %d", name, d, node))
			return
		}
		t += d
		if t > env.duration {
			break
		}
		if on {
			env.FailAt(t, node)
		} else {
			env.JoinAt(t, node)
		}
		on = !on
	}
}

// LookupAt schedules a lookup from src for the key owned by dst, starting
// at time t. Lookups whose source or destination is offline at start time
// are recorded as skipped, mirroring the static model's conditioning on
// surviving pairs.
func (env *Env) LookupAt(t float64, src, dst int) {
	if env.checkTime(t) && env.checkNode(src) && env.checkNode(dst) {
		if src == dst {
			env.fail(fmt.Errorf("lookup src == dst == %d", src))
			return
		}
		env.lookups = append(env.lookups, scheduledLookup{t: t, src: uint32(src), dst: uint32(dst)})
	}
}

// PoissonLookups schedules lookups with exponential inter-arrival gaps of
// aggregate rate over [from, to), drawing sources uniformly and targets
// from targetOf (nil means uniform). It is the workload helper the
// built-in scenarios share.
func (env *Env) PoissonLookups(from, to, rate float64, targetOf func(rng *overlay.RNG) int) {
	if rate <= 0 || to <= from {
		return
	}
	for t := from + env.rng.Exp(1/rate); t < to; t += env.rng.Exp(1 / rate) {
		src := env.rng.Intn(env.nodes)
		var dst int
		if targetOf != nil {
			dst = targetOf(env.rng)
		} else {
			dst = env.rng.Intn(env.nodes)
		}
		// Redraw a src==dst collision from the same target distribution,
		// so skewed workloads stay skewed; fall back to uniform after a
		// few tries in case targetOf is a point mass on src.
		for tries := 0; dst == src; tries++ {
			if targetOf != nil && tries < 16 {
				dst = targetOf(env.rng)
			} else {
				dst = env.rng.Intn(env.nodes)
			}
		}
		env.LookupAt(t, src, dst)
	}
}

// ZipfTargets returns a target sampler with rank distribution Zipf(s) over
// a random permutation of the identifier space (s = 0 degenerates to
// uniform). The permutation decouples popularity rank from identifier
// structure, so hot keys land anywhere on the ring.
func (env *Env) ZipfTargets(s float64) func(rng *overlay.RNG) int {
	if s <= 0 {
		return nil
	}
	perm := make([]int32, env.nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := env.nodes - 1; i > 0; i-- {
		j := env.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Cumulative rank weights 1/(r+1)^s, normalized.
	cdf := make([]float64, env.nodes)
	sum := 0.0
	for r := 0; r < env.nodes; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return func(rng *overlay.RNG) int {
		u := rng.Float64()
		r := sort.SearchFloat64s(cdf, u)
		if r >= env.nodes {
			r = env.nodes - 1
		}
		return int(perm[r])
	}
}

// Scenario drives one event-simulation run: Program schedules the node
// lifecycle and the lookup workload against the Env before the clock
// starts. Implementations must derive all randomness from env.RNG() so
// runs stay deterministic, and must not retain env.
type Scenario interface {
	// Name returns the scenario's registered name.
	Name() string
	// Program schedules the scenario's events.
	Program(env *Env) error
}

// ScenarioFactory builds a scenario from run parameters (already
// defaulted). Factories run once per eventsim.Run.
type ScenarioFactory func(p Params) (Scenario, error)

// scenarios is the scenario registry — an instance of the module's one
// name registry (rcm/spec), like the geometry and protocol registries, so
// aliases resolve everywhere, including q_eff computation.
var scenarios = spec.NewRegistry[ScenarioFactory]("eventsim", "scenario")

// RegisterScenario adds a scenario factory under a canonical name plus
// optional aliases. Names are case-insensitive; a taken or empty name is
// an error.
func RegisterScenario(name string, f ScenarioFactory, aliases ...string) error {
	return scenarios.Register(name, f, aliases...)
}

// LookupScenario resolves a scenario factory by name or alias.
func LookupScenario(name string) (ScenarioFactory, bool) { return scenarios.Lookup(name) }

// CanonicalScenario resolves a scenario name or alias to its canonical
// registered name (ok is false for unknown names).
func CanonicalScenario(name string) (string, bool) { return scenarios.Canonical(name) }

// ScenarioNames returns the canonical scenario names in registration order
// (the built-in five first, user registrations after).
func ScenarioNames() []string { return scenarios.Names() }
