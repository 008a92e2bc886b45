package eventsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rcm/overlay"
	"rcm/spec"
)

// Transport models the network between nodes: every message send samples a
// one-way latency and a delivery verdict. Implementations must be pure
// given the RNG (all randomness drawn from it), and must report finite
// positive latency bounds — MinLatency is the engine's conservative
// lookahead (the sharded event wheels advance in epochs of that length),
// and MaxLatency bounds the retransmission timeout so a timeout never
// fires before a genuinely-delivered acknowledgement could have arrived.
type Transport interface {
	// Name identifies the model in logs and rows.
	Name() string
	// MinLatency returns a positive lower bound on sampled latencies.
	MinLatency() float64
	// MaxLatency returns a finite upper bound on sampled latencies.
	MaxLatency() float64
	// Sample returns the one-way latency of a message and whether it is
	// delivered at all.
	Sample(rng *overlay.RNG) (latency float64, delivered bool)
}

// DefaultLatency is the constant-transport latency used when no transport
// is configured: 50 ms in the engine's unit of seconds.
const DefaultLatency = 0.05

// Constant is the fixed-latency, lossless transport.
type Constant struct {
	// Latency is the one-way message latency (DefaultLatency when zero).
	Latency float64
}

// Name implements Transport.
func (c Constant) Name() string { return "constant" }

func (c Constant) latency() float64 {
	if c.Latency <= 0 {
		return DefaultLatency
	}
	return c.Latency
}

// MinLatency implements Transport.
func (c Constant) MinLatency() float64 { return c.latency() }

// MaxLatency implements Transport.
func (c Constant) MaxLatency() float64 { return c.latency() }

// Sample implements Transport.
func (c Constant) Sample(*overlay.RNG) (float64, bool) { return c.latency(), true }

// Empirical samples latencies from a King-style wide-area RTT profile
// (kingProfile) scaled so its median matches Median. Sampling inverts the
// empirical CDF with linear interpolation between quantile knots, so the
// distribution is continuous, bounded, and cheap.
type Empirical struct {
	// Median scales the profile; zero selects DefaultLatency.
	Median float64
}

// kingProfile is the wide-area latency shape, normalized to a median of
// 1: a fast same-continent floor, a wide middle, and a heavy
// intercontinental tail (11 knots at CDF 0, 0.1, …, 1).
var kingProfile = []float64{0.3, 0.5, 0.65, 0.8, 0.9, 1, 1.15, 1.35, 1.7, 2.4, 4}

// scale maps kingProfile, whose median knot is 1, onto Median.
func (e Empirical) scale() float64 {
	if e.Median <= 0 {
		return DefaultLatency
	}
	return e.Median
}

// Name implements Transport.
func (e Empirical) Name() string { return "empirical" }

// MinLatency implements Transport.
func (e Empirical) MinLatency() float64 { return e.scale() * kingProfile[0] }

// MaxLatency implements Transport.
func (e Empirical) MaxLatency() float64 { return e.scale() * kingProfile[len(kingProfile)-1] }

// Sample implements Transport: inverse-CDF with linear interpolation.
func (e Empirical) Sample(rng *overlay.RNG) (float64, bool) {
	p := kingProfile
	u := rng.Float64() * float64(len(p)-1)
	i := int(u)
	if i >= len(p)-1 {
		i = len(p) - 2
	}
	frac := u - float64(i)
	return e.scale() * (p[i] + frac*(p[i+1]-p[i])), true
}

// validateEmpirical rejects medians the engine cannot bound.
func validateEmpirical(e Empirical) error {
	if e.Median < 0 || math.IsNaN(e.Median) || math.IsInf(e.Median, 0) {
		return fmt.Errorf("eventsim: empirical median %v must be a finite value >= 0 (zero selects the default)", e.Median)
	}
	return nil
}

// Lossy wraps another transport and drops each message independently with
// probability Rate. Only forward (request) messages traverse the lossy
// path in the engine; acknowledgements are modeled reliable, which keeps a
// lookup from ever being duplicated in flight (see the engine doc).
type Lossy struct {
	// Inner is the underlying latency model (Constant{} when nil).
	Inner Transport
	// Rate is the independent per-message loss probability in [0,1]; 1
	// is a total blackhole (every lookup times out and fails — useful
	// for worst-case and invariant tests).
	Rate float64
}

func (l Lossy) inner() Transport {
	if l.Inner == nil {
		return Constant{}
	}
	return l.Inner
}

// Name implements Transport.
func (l Lossy) Name() string { return "lossy+" + l.inner().Name() }

// MinLatency implements Transport.
func (l Lossy) MinLatency() float64 { return l.inner().MinLatency() }

// MaxLatency implements Transport.
func (l Lossy) MaxLatency() float64 { return l.inner().MaxLatency() }

// Sample implements Transport.
func (l Lossy) Sample(rng *overlay.RNG) (float64, bool) {
	lat, ok := l.inner().Sample(rng)
	if !ok {
		return lat, false
	}
	// Sampling order matters for determinism: latency first, then the loss
	// coin, so lossless and lossy runs share latency streams.
	return lat, !rng.Bernoulli(l.Rate)
}

// validateTransport checks the bounds the engine's sharding and timeout
// logic rely on.
func validateTransport(tr Transport) error {
	if c, ok := tr.(Constant); ok && c.Latency < 0 {
		return fmt.Errorf("eventsim: constant latency %v must be >= 0 (zero selects the default)", c.Latency)
	}
	if e, ok := tr.(Empirical); ok {
		if err := validateEmpirical(e); err != nil {
			return err
		}
	}
	if l, ok := tr.(Lossy); ok {
		if l.Rate < 0 || l.Rate > 1 || math.IsNaN(l.Rate) {
			return fmt.Errorf("eventsim: loss rate %v out of [0,1]", l.Rate)
		}
		if containsFaulty(l.inner()) {
			return fmt.Errorf("eventsim: fault transport must be outermost (wrap %s inside fault:<plan>/... instead)", l.inner().Name())
		}
		return validateTransport(l.inner())
	}
	if f, ok := tr.(Faulty); ok {
		if f.Plan.Empty() {
			return fmt.Errorf("eventsim: fault transport has an empty plan")
		}
		if err := f.Plan.Validate(); err != nil {
			return err
		}
		if containsFaulty(f.inner()) {
			return fmt.Errorf("eventsim: fault transport cannot nest another fault transport")
		}
		return validateTransport(f.inner())
	}
	lo, hi := tr.MinLatency(), tr.MaxLatency()
	switch {
	case !(lo > 0) || math.IsInf(lo, 0):
		return fmt.Errorf("eventsim: transport %s MinLatency %v must be positive and finite", tr.Name(), lo)
	case !(hi >= lo) || math.IsInf(hi, 0):
		return fmt.Errorf("eventsim: transport %s MaxLatency %v must be finite and >= MinLatency %v", tr.Name(), hi, lo)
	}
	return nil
}

// transports is the name-keyed transport table — an instance of the
// module's one registry-style spec grammar (rcm/spec): case-insensitive,
// alias-aware, collision-checked, with unknown names erroring against the
// sorted list of every accepted spelling.
var transports = spec.New[Transport]("eventsim", "transport")

func init() {
	transports.MustRegister("constant", func(arg string) (Transport, error) {
		c := Constant{}
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("eventsim: constant latency %q: %v", arg, err)
			}
			c.Latency = v
		}
		return c, validateTransport(c)
	}, "const")
	transports.MustRegister("empirical", func(arg string) (Transport, error) {
		e := Empirical{}
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("eventsim: empirical median %q: %v", arg, err)
			}
			e.Median = v
		}
		return e, validateTransport(e)
	}, "king")
	transports.MustRegister("lossy", func(arg string) (Transport, error) {
		l := Lossy{}
		rateStr, innerStr, _ := strings.Cut(arg, ":")
		if rateStr != "" {
			v, err := strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return nil, fmt.Errorf("eventsim: loss rate %q: %v", rateStr, err)
			}
			l.Rate = v
		}
		if innerStr != "" {
			inner, err := ParseTransport(innerStr)
			if err != nil {
				return nil, err
			}
			if _, nested := inner.(Lossy); nested {
				return nil, fmt.Errorf("eventsim: lossy transport cannot nest another lossy transport")
			}
			l.Inner = inner
		}
		return l, validateTransport(l)
	})
	if err := transports.SetDefault("constant"); err != nil {
		panic(err) // constant was just registered; unreachable
	}
}

// ParseTransport builds a transport from its CLI spelling:
//
//	constant[:latency]
//	empirical[:median]
//	lossy[:rate[:inner]]       e.g. lossy:0.05:empirical:0.08
//
// Numbers are in the
// engine's time unit (seconds); the empty spec selects the default
// constant model.
func ParseTransport(s string) (Transport, error) {
	return transports.Parse(s)
}

// TransportSpec renders a transport as a canonical ParseTransport spelling
// — the inverse the round-trip suite checks (Transport.Name is a display
// label, not a spec: a Lossy names itself "lossy+constant"). Transports
// registered outside this package fall back to their Name, which
// registrants should keep parseable.
func TransportSpec(tr Transport) string {
	switch v := tr.(type) {
	case Constant:
		return fmt.Sprintf("constant:%g", v.latency())
	case Empirical:
		med := v.Median
		if med <= 0 {
			med = DefaultLatency
		}
		return fmt.Sprintf("empirical:%g", med)
	case Lossy:
		return fmt.Sprintf("lossy:%g:%s", v.Rate, TransportSpec(v.inner()))
	case Faulty:
		return fmt.Sprintf("fault:%s/%s", v.Plan.String(), TransportSpec(v.inner()))
	default:
		return tr.Name()
	}
}
