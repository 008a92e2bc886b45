// Package sim contains the experiment harness that exercises the protocol
// simulators: the Gummadi-style static-resilience measurement the paper
// validates against (Fig. 6). The dynamic regime §1 leaves open is
// rcm/eventsim's.
package sim

import (
	"errors"
	"fmt"
	"math"

	"rcm/internal/dht"
	"rcm/overlay"
)

// Options configures a static-resilience measurement. The zero value is
// usable: 10 000 sampled pairs, 3 trials. A measurement runs on the calling
// goroutine and draws every sample from streams derived from Seed; callers
// that want parallelism run measurements side by side (rcm/exp's cell pool).
type Options struct {
	// Pairs is the number of ordered (src, dst) pairs sampled per trial.
	// Ignored when AllPairs is set.
	Pairs int
	// AllPairs routes every ordered pair of surviving nodes instead of
	// sampling — the exact Definition 1 numerator. Quadratic in the
	// population; intended for small overlays and estimator-bias tests.
	AllPairs bool
	// Trials is the number of independent failure patterns.
	Trials int
	// Seed makes the measurement deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Pairs <= 0 {
		o.Pairs = 10000
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
	return o
}

// Result summarizes a static-resilience measurement at one failure
// probability.
type Result struct {
	// Protocol is the measured protocol's name.
	Protocol string
	// Q is the node-failure probability.
	Q float64
	// Routability is the fraction of sampled surviving pairs that routed
	// successfully, averaged over trials (the paper's Definition 1,
	// estimated by sampling).
	Routability float64
	// FailedPathPct is 100·(1 − Routability), Fig. 6's y-axis.
	FailedPathPct float64
	// StdErr is the standard error of Routability across trials (0 when
	// Trials == 1).
	StdErr float64
	// CI95Low and CI95High bound the 95% Student-t confidence interval for
	// Routability (clamped to [0,1]; equal to Routability when Trials == 1).
	CI95Low  float64
	CI95High float64
	// MeanHops is the mean hop count over successful routes.
	MeanHops float64
	// AliveFraction is the measured fraction of surviving nodes.
	AliveFraction float64
	// Pairs is the total number of routed pairs across trials.
	Pairs int
	// Trials is the number of independent failure patterns measured.
	Trials int
}

// MeasureStaticResilience runs the static-resilience experiment of §1/§2:
// fail each node independently with probability q, keep routing tables
// static, and measure the fraction of sampled surviving ordered pairs that
// remain routable with greedy, non-backtracking forwarding.
//
// Pairs are sampled uniformly over distinct surviving nodes. Trials use
// independent failure patterns: trial t splits its stream off
// NewRNG(Seed ^ "RESL"), draws one Bernoulli per node in identifier order,
// then splits the pair stream off what is left.
func MeasureStaticResilience(p dht.Protocol, q float64, opt Options) (Result, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return Result{}, fmt.Errorf("sim: q=%v out of [0,1]", q)
	}
	opt = opt.withDefaults()
	// The participating identifiers: the overlay's declared population when
	// it implements dht.Populated (sparse variant), otherwise every
	// identifier — node i is identifier i and nodes stays nil.
	var nodes []overlay.ID
	n := int(p.Space().Size())
	if sp, ok := p.(dht.Populated); ok {
		nodes = sp.Nodes()
		n = len(nodes)
	}
	if n < 2 {
		return Result{}, errors.New("sim: overlay population smaller than 2")
	}
	root := overlay.NewRNG(opt.Seed ^ 0x5245534c) // "RESL"

	perTrial := make([]float64, 0, opt.Trials)
	var totalPairs, totalSuccess, totalHops, aliveSum int
	// One failure pattern at a time: every trial rewrites the whole
	// population's bits, so the set and the list are reused, not reallocated.
	alive := overlay.NewBitset(int(p.Space().Size()))
	aliveNodes := make([]overlay.ID, 0, n)
	for trial := 0; trial < opt.Trials; trial++ {
		trialRNG := root.Split()
		aliveNodes = aliveNodes[:0]
		for i := 0; i < n; i++ {
			id := overlay.ID(i)
			if nodes != nil {
				id = nodes[i]
			}
			if trialRNG.Bernoulli(1 - q) {
				alive.Set(int(id))
				aliveNodes = append(aliveNodes, id)
			} else {
				alive.Clear(int(id))
			}
		}
		aliveSum += len(aliveNodes)
		if len(aliveNodes) < 2 {
			// Degenerate pattern: no routable pairs exist at all.
			perTrial = append(perTrial, 0)
			continue
		}
		var success, hops, routed int
		if opt.AllPairs {
			success, hops = routeAllPairs(p, alive, aliveNodes)
			routed = len(aliveNodes) * (len(aliveNodes) - 1)
		} else {
			success, hops = routePairs(p, alive, aliveNodes, opt.Pairs, trialRNG)
			routed = opt.Pairs
		}
		perTrial = append(perTrial, float64(success)/float64(routed))
		totalPairs += routed
		totalSuccess += success
		totalHops += hops
	}

	mean, stderr := meanStdErr(perTrial)
	lo, hi := confidence95(mean, stderr, len(perTrial))
	res := Result{
		Protocol:      p.Name(),
		Q:             q,
		Routability:   mean,
		FailedPathPct: 100 * (1 - mean),
		StdErr:        stderr,
		CI95Low:       lo,
		CI95High:      hi,
		AliveFraction: float64(aliveSum) / float64(n*opt.Trials),
		Pairs:         totalPairs,
		Trials:        opt.Trials,
	}
	if totalSuccess > 0 {
		res.MeanHops = float64(totalHops) / float64(totalSuccess)
	}
	return res, nil
}

// routePairs samples that many ordered pairs of distinct alive nodes from
// one stream split off the trial's and routes them, returning the success
// count and the total hops over successful routes.
func routePairs(p dht.Protocol, alive *overlay.Bitset, aliveNodes []overlay.ID, pairs int, rng *overlay.RNG) (successes, hops int) {
	local := rng.Split()
	for i := 0; i < pairs; i++ {
		src := aliveNodes[local.Intn(len(aliveNodes))]
		dst := aliveNodes[local.Intn(len(aliveNodes))]
		for dst == src {
			dst = aliveNodes[local.Intn(len(aliveNodes))]
		}
		if h, routed := p.Route(src, dst, alive); routed {
			successes++
			hops += h
		}
	}
	return successes, hops
}

// tCritical95 holds two-sided 97.5th-percentile Student-t values by degrees
// of freedom for small samples; beyond the table the normal 1.96 applies.
var tCritical95 = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}

// confidence95 returns the Student-t 95% confidence interval for a mean
// with the given standard error and sample size, clamped to [0,1].
func confidence95(mean, stderr float64, n int) (lo, hi float64) {
	if n < 2 || stderr == 0 {
		return mean, mean
	}
	t, ok := tCritical95[n-1]
	if !ok {
		t = 1.96
	}
	lo = mean - t*stderr
	hi = mean + t*stderr
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// routeAllPairs routes every ordered pair of alive nodes and returns the
// success count and total hops of successful routes.
func routeAllPairs(p dht.Protocol, alive *overlay.Bitset, aliveNodes []overlay.ID) (successes, hops int) {
	for _, src := range aliveNodes {
		for _, dst := range aliveNodes {
			if dst == src {
				continue
			}
			if h, routed := p.Route(src, dst, alive); routed {
				successes++
				hops += h
			}
		}
	}
	return successes, hops
}

// meanStdErr returns the sample mean and the standard error of the mean.
func meanStdErr(xs []float64) (mean, stderr float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	return mean, math.Sqrt(variance / float64(len(xs)))
}

// Sweep measures static resilience across a slice of failure probabilities,
// reusing the same overlay. Results are returned in input order.
func Sweep(p dht.Protocol, qs []float64, opt Options) ([]Result, error) {
	out := make([]Result, 0, len(qs))
	for i, q := range qs {
		o := opt
		o.Seed = opt.Seed + uint64(i)*0x9e37
		r, err := MeasureStaticResilience(p, q, o)
		if err != nil {
			return nil, fmt.Errorf("sim: sweep q=%v: %w", q, err)
		}
		out = append(out, r)
	}
	return out, nil
}
