package eventsim

import (
	"fmt"
	"math"
	"strconv"

	"rcm/overlay"
	"rcm/spec"
)

// Transport models the network between nodes as a latency distribution:
// every message send samples a one-way latency. Loss and every other
// network fault come from Config.Fault, not from the transport.
// Implementations must be pure given the RNG (all randomness drawn from
// it), and must report finite positive latency bounds — MinLatency is the
// engine's conservative lookahead (the sharded event wheels advance in
// epochs of that length), and MaxLatency bounds the retransmission
// timeout so a timeout never fires before a genuinely-delivered
// acknowledgement could have arrived.
type Transport interface {
	// Name identifies the model in logs and rows.
	Name() string
	// MinLatency returns a positive lower bound on sampled latencies.
	MinLatency() float64
	// MaxLatency returns a finite upper bound on sampled latencies.
	MaxLatency() float64
	// Sample returns the one-way latency of a message.
	Sample(rng *overlay.RNG) float64
}

// DefaultLatency is the constant-transport latency used when no transport
// is configured: 50 ms in the engine's unit of seconds.
const DefaultLatency = 0.05

// Constant is the fixed-latency transport.
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
func (c Constant) Sample(*overlay.RNG) float64 { return c.latency() }

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
func (e Empirical) Sample(rng *overlay.RNG) float64 {
	p := kingProfile
	u := rng.Float64() * float64(len(p)-1)
	i := int(u)
	if i >= len(p)-1 {
		i = len(p) - 2
	}
	frac := u - float64(i)
	return e.scale() * (p[i] + frac*(p[i+1]-p[i]))
}

// validateTransport checks the bounds the engine's sharding and timeout
// logic rely on.
func validateTransport(tr Transport) error {
	switch v := tr.(type) {
	case Constant:
		if v.Latency < 0 {
			return fmt.Errorf("eventsim: constant latency %v must be >= 0 (zero selects the default)", v.Latency)
		}
	case Empirical:
		if v.Median < 0 || math.IsNaN(v.Median) || math.IsInf(v.Median, 0) {
			return fmt.Errorf("eventsim: empirical median %v must be a finite value >= 0 (zero selects the default)", v.Median)
		}
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
	if err := transports.SetDefault("constant"); err != nil {
		panic(err) // constant was just registered; unreachable
	}
}

// ParseTransport builds a transport from its CLI spelling:
//
//	constant[:latency]
//	empirical[:median]         e.g. empirical:0.08
//
// Numbers are in the engine's time unit (seconds); the empty spec selects
// the default constant model.
func ParseTransport(s string) (Transport, error) {
	return transports.Parse(s)
}

// TransportSpec renders a transport as a canonical ParseTransport spelling
// — the inverse the round-trip suite checks (Transport.Name is a display
// label, not a spec: it drops the latency argument). Transports
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
	default:
		return tr.Name()
	}
}
