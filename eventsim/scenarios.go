package eventsim

import (
	"fmt"
	"math"
	"strings"

	"rcm/overlay"
)

// The built-in scenario library. Each scenario is an ordinary registrant
// of the scenario registry — a user-defined Scenario registered through
// RegisterScenario resolves everywhere these do (eventsim.Run, rcm/exp
// event cells, the cmd/eventsim -scenario flag).
func init() {
	for _, reg := range []struct {
		name    string
		factory ScenarioFactory
		aliases []string
	}{
		{"massfail", func(Params) (Scenario, error) { return massfail{}, nil }, []string{"fail"}},
		{"churn", func(Params) (Scenario, error) { return churn{}, nil }, nil},
		{"flashcrowd", func(Params) (Scenario, error) { return flashcrowd{}, nil }, []string{"crowd"}},
		{"correlated", func(Params) (Scenario, error) { return correlated{}, nil }, []string{"regions"}},
		{"zipf", func(Params) (Scenario, error) { return zipf{}, nil }, []string{"skewed"}},
		{"faultstorm", func(Params) (Scenario, error) { return faultstorm{}, nil }, []string{"storm"}},
		{"heavytail", newHeavytail, []string{"pareto-churn"}},
		{"diurnal", newDiurnal, []string{"daily"}},
		{"tracechurn", newTracechurn, []string{"trace-replay"}},
	} {
		if err := RegisterScenario(reg.name, reg.factory, reg.aliases...); err != nil {
			panic(err) // static names; unreachable
		}
	}
}

// massfail reproduces the paper's static failure model as a dynamic event:
// at FailTime, a uniformly-chosen fraction FailFraction of the population
// fails simultaneously and stays down; uniform lookups flow for the whole
// run. After the failure the overlay is exactly the static-resilience
// regime, which is what the cross-validation test exploits.
type massfail struct{}

func (massfail) Name() string { return "massfail" }

func (massfail) Program(env *Env) error {
	p := env.Params()
	if p.FailTime <= env.Duration() {
		rng := env.RNG()
		for node := 0; node < env.Nodes(); node++ {
			if rng.Bernoulli(p.FailFraction) {
				env.FailAt(p.FailTime, node)
			}
		}
	}
	env.PoissonLookups(0, env.Duration(), p.Rate, nil)
	return nil
}

// churn gives every node an exponential on/off lifecycle (the dynamic
// regime §1 leaves open), with uniform lookups throughout — the
// message-level counterpart of internal/sim's churn engine.
type churn struct{}

func (churn) Name() string { return "churn" }

func (churn) Program(env *Env) error {
	p := env.Params()
	for node := 0; node < env.Nodes(); node++ {
		env.ChurnNode(node, p.MeanOnline, p.MeanOffline)
	}
	env.PoissonLookups(0, env.Duration(), p.Rate, nil)
	return nil
}

// flashcrowd models a demand spike: baseline uniform lookups, then during
// [CrowdStart, CrowdStart+CrowdDuration) the arrival rate multiplies by
// CrowdFactor with a fraction Hot of lookups addressed to one hot key.
// No nodes fail; the stress is purely load concentration.
type flashcrowd struct{}

func (flashcrowd) Name() string { return "flashcrowd" }

func (flashcrowd) Program(env *Env) error {
	p := env.Params()
	// Clamp the crowd window into the run, as massfail does for FailTime:
	// a crowd that starts past the horizon degenerates to baseline load.
	start := p.CrowdStart
	if start > env.Duration() {
		start = env.Duration()
	}
	crowdEnd := start + p.CrowdDuration
	if crowdEnd > env.Duration() {
		crowdEnd = env.Duration()
	}
	hot := env.RNG().Intn(env.Nodes())
	hotTargets := func(rng *overlay.RNG) int {
		if rng.Bernoulli(p.Hot) {
			return hot
		}
		return rng.Intn(env.Nodes())
	}
	env.PoissonLookups(0, start, p.Rate, nil)
	env.PoissonLookups(start, crowdEnd, p.Rate*p.CrowdFactor, hotTargets)
	env.PoissonLookups(crowdEnd, env.Duration(), p.Rate, nil)
	return nil
}

// correlated kills Regions contiguous identifier ranges at FailTime —
// totalling FailFraction of the space — modeling rack, AS or data-center
// failures where identifier-adjacent nodes share fate. Structured
// geometries (ring successor chains, tree subtrees) lose whole routing
// neighborhoods at once, which independent sampling never produces.
type correlated struct{}

func (correlated) Name() string { return "correlated" }

func (correlated) Program(env *Env) error {
	p := env.Params()
	if p.FailTime <= env.Duration() && p.Regions > 0 && p.FailFraction > 0 {
		rng := env.RNG()
		n := env.Nodes()
		span := int(p.FailFraction * float64(n) / float64(p.Regions))
		if span < 1 {
			span = 1
		}
		for r := 0; r < p.Regions; r++ {
			start := rng.Intn(n)
			for i := 0; i < span; i++ {
				env.FailAt(p.FailTime, (start+i)%n)
			}
		}
	}
	env.PoissonLookups(0, env.Duration(), p.Rate, nil)
	return nil
}

// faultstorm is the fault-injection substrate: the whole population stays
// online for the whole run with uniform Poisson lookups throughout, so
// every success dip, hop inflation or timeout burst is attributable to
// the transport's fault plan alone — pair it with a fault:<plan>/...
// transport (rcm/fault) rather than a churn scenario, which would
// confound node lifecycle with injected network faults. With a lossless
// plain transport it degenerates to the uniform baseline.
type faultstorm struct{}

func (faultstorm) Name() string { return "faultstorm" }

func (faultstorm) Program(env *Env) error {
	env.PoissonLookups(0, env.Duration(), env.Params().Rate, nil)
	return nil
}

// renewal is churn with the memoryless assumption removed, the scenario
// behind both heavytail and tracechurn: every node alternates online
// sessions drawn from on and offline stretches drawn from off, both pinned
// to the same MeanOnline/MeanOffline means as the churn scenario — so
// q_eff is identical and any performance gap is attributable purely to the
// lifetime *shape*. The two registrants differ in where on comes from.
type renewal struct {
	name    string
	on, off Lifetime
}

// newHeavytail defaults the online family to Pareto α = 1.5 and the
// offline one to exponential. The equilibrium conformance suite locks in
// the resulting finding: the static q_eff summary, exact for exponential
// lifetimes, measurably misses for heavy tails.
func newHeavytail(p Params) (Scenario, error) {
	_, _, on, off, err := lifetimeDists(p, "pareto", "exp")
	if err != nil {
		return nil, err
	}
	return renewal{name: "heavytail", on: on, off: off}, nil
}

// newTracechurn replays measured availability traces: sessions and
// downtimes are resampled from trace files (rescaled to
// MeanOnline/MeanOffline, so trace replay sits on the same equal-mean axis
// as the parametric families — request the trace's own empirical mean to
// replay natively). Params.Lifetime must name a trace or other explicit
// family; the scenario refuses to default it, because "replay" with no
// trace is a silent downgrade to synthetic churn.
func newTracechurn(p Params) (Scenario, error) {
	if strings.TrimSpace(p.Lifetime) == "" {
		return nil, fmt.Errorf("eventsim: tracechurn requires Params.Lifetime (e.g. \"trace:sessions.txt\")")
	}
	_, _, on, off, err := lifetimeDists(p, p.Lifetime, "exp")
	if err != nil {
		return nil, err
	}
	return renewal{name: "tracechurn", on: on, off: off}, nil
}

func (s renewal) Name() string { return s.name }

func (s renewal) Program(env *Env) error {
	for node := 0; node < env.Nodes(); node++ {
		env.ChurnNodeDist(node, s.on, s.off)
	}
	env.PoissonLookups(0, env.Duration(), env.Params().Rate, nil)
	return nil
}

// diurnal models the daily population swing of a deployed DHT: sessions
// come from the configured lifetime families (default exponential), but
// the mean a session is drawn at is modulated by the time of "day" —
// online means scale by 1 + A·sin(2πt/P) while offline means scale by
// 1 − A·sin(2πt/P), so the online fraction oscillates around the
// long-run q_eff with period DiurnalPeriod and amplitude set by
// DiurnalAmplitude.
type diurnal struct {
	onF, offF LifetimeFamily
}

func newDiurnal(p Params) (Scenario, error) {
	// Parsing also pins the unmodulated means once, surfacing degenerate
	// means now rather than mid-schedule.
	onF, offF, _, _, err := lifetimeDists(p, "exp", "exp")
	if err != nil {
		return nil, err
	}
	return diurnal{onF: onF, offF: offF}, nil
}

func (s diurnal) Name() string { return "diurnal" }

func (s diurnal) Program(env *Env) error {
	p := env.Params()
	period, amp := p.DiurnalPeriod, p.DiurnalAmplitude
	day := func(t float64) float64 { return math.Sin(2 * math.Pi * t / period) }
	rng := env.RNG()
	for node := 0; node < env.Nodes(); node++ {
		on := rng.Bernoulli(p.MeanOnline / (p.MeanOnline + p.MeanOffline))
		if !on {
			env.SetOffline(node)
		}
		// The shared guarded renewal loop, with the session mean
		// re-modulated at each session's start time.
		env.churnSchedule(node, on, func(on bool, t float64) (float64, string) {
			mean := p.MeanOnline * (1 + amp*day(t))
			fam := s.onF
			if !on {
				mean = p.MeanOffline * (1 - amp*day(t))
				fam = s.offF
			}
			d, err := fam.Dist(mean)
			if err != nil {
				env.fail(err)
				return 0, fam.Name()
			}
			return d.Sample(rng), d.Name()
		})
	}
	env.PoissonLookups(0, env.Duration(), p.Rate, nil)
	return nil
}

// zipf keeps every node online and skews the lookup workload: targets are
// drawn from a Zipf(ZipfS) rank distribution over a random permutation of
// the identifier space. A zero ZipfS selects the scenario default s = 1
// (a zipf run should be skewed without extra flags); for the uniform
// baseline use the massfail scenario with FailFraction 0.
type zipf struct{}

func (zipf) Name() string { return "zipf" }

func (zipf) Program(env *Env) error {
	p := env.Params()
	s_ := p.ZipfS
	if s_ <= 0 {
		s_ = 1
	}
	env.PoissonLookups(0, env.Duration(), p.Rate, env.ZipfTargets(s_))
	return nil
}
