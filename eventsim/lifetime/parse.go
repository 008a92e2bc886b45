package lifetime

import (
	"fmt"

	"rcm/spec"
)

// Factory builds a Family from the argument part of a Parse spec (the text
// after the first ':', possibly empty). Factories must validate their
// argument and return descriptive errors.
type Factory = spec.Factory[Family]

// families is the name-keyed family table — an instance of the module's
// one registry-style spec grammar (rcm/spec): case-insensitive,
// alias-aware, collision-checked, with unknown names erroring against the
// sorted list of every accepted spelling.
var families = spec.New[Family]("lifetime", "family")

// Register adds a lifetime family factory under a canonical name plus
// optional aliases. Names are case-insensitive; a taken or empty name is
// an error. Registered families resolve everywhere the built-ins do:
// Parse, eventsim scenario parameters, and the cmd/eventsim -lifetime and
// -downtime flags.
func Register(name string, f Factory, aliases ...string) error {
	return families.Register(name, f, aliases...)
}

// Lookup resolves a family factory by name or alias.
func Lookup(name string) (Factory, bool) { return families.Lookup(name) }

// Names returns the canonical family names in registration order (the
// built-in five first, user registrations after).
func Names() []string { return families.Names() }

// Parse builds a lifetime family from its CLI spelling:
//
//	exp
//	pareto[:alpha]        e.g. pareto:1.5   (alpha > 1; <= 1 has no mean)
//	weibull[:shape]       e.g. weibull:0.5
//	lognormal[:sigma]     e.g. lognormal:1
//	trace:<file>          one duration per line, # comments
//
// The empty spec selects the exponential family (the memoryless default).
// Shape arguments are parsed by the named family's registered factory, so
// user-registered families get the same spelling.
func Parse(s string) (Family, error) {
	return families.Parse(s)
}

// Spec renders a family as its canonical Parse spelling — the inverse
// tested by the round-trip suite. Families built outside this package
// (user registrations) fall back to their Name, which registrants should
// keep parseable.
func Spec(f Family) string {
	switch v := f.(type) {
	case Exponential:
		return "exp"
	case Pareto:
		return fmt.Sprintf("pareto:%g", v.alpha())
	case Weibull:
		return fmt.Sprintf("weibull:%g", v.shape())
	case Lognormal:
		return fmt.Sprintf("lognormal:%g", v.sigma())
	case Trace:
		return "trace:" + v.Source
	default:
		return f.Name()
	}
}

// shaped is the factory of a one-parameter family: parse the optional
// numeric shape argument (empty selects the family default, its zero
// value), construct the family, validate it.
func shaped[F interface {
	Family
	Validate() error
}](name string, construct func(shape float64) F) Factory {
	return func(arg string) (Family, error) {
		v, _, err := spec.Float("lifetime", name, arg)
		if err != nil {
			return nil, err
		}
		f := construct(v)
		if err := f.Validate(); err != nil {
			return nil, err
		}
		return f, nil
	}
}

func init() {
	for _, reg := range []struct {
		name    string
		factory Factory
		aliases []string
	}{
		{"exp", func(arg string) (Family, error) {
			if arg != "" {
				return nil, fmt.Errorf("lifetime: exp takes no argument (got %q); the mean is set by the scenario", arg)
			}
			return Exponential{}, nil
		}, []string{"exponential"}},
		{"pareto", shaped("pareto", func(a float64) Pareto { return Pareto{Alpha: a} }), []string{"heavytail"}},
		{"weibull", shaped("weibull", func(k float64) Weibull { return Weibull{Shape: k} }), nil},
		{"lognormal", shaped("lognormal", func(s float64) Lognormal { return Lognormal{Sigma: s} }), []string{"lognorm"}},
		{"trace", func(arg string) (Family, error) {
			if arg == "" {
				return nil, fmt.Errorf("lifetime: trace requires a file path, e.g. trace:sessions.txt")
			}
			return LoadTrace(arg)
		}, nil},
	} {
		families.MustRegister(reg.name, reg.factory, reg.aliases...)
	}
	if err := families.SetDefault("exp"); err != nil {
		panic(err) // exp was just registered; unreachable
	}
}
