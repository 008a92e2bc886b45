package rcm_test

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rcm"
	"rcm/eventsim"
	"rcm/eventsim/lifetime"
	"rcm/exp"
	"rcm/node"
	"rcm/overlay"
)

// toyGeometry is a minimal valid registrant for registry tests.
type toyGeometry struct{ name string }

func (g toyGeometry) Name() string        { return g.name }
func (toyGeometry) System() string        { return "Toy" }
func (toyGeometry) MaxDistance(d int) int { return d }
func (toyGeometry) LogNodesAt(d, h int) float64 {
	if h < 1 || h > d {
		return math.Inf(-1)
	}
	return 0
}
func (toyGeometry) PhaseFailure(d, m int, q float64) float64 { return q }

func toyFactory(name string) rcm.GeometryFactory {
	return func(rcm.Config) (rcm.Geometry, error) { return toyGeometry{name: name}, nil }
}

func TestRegisterGeometryBuiltinCollisions(t *testing.T) {
	// Canonical built-in names and their aliases are all reserved, in both
	// vocabularies: "chord" is an alias of the ring geometry and the
	// canonical name of the chord protocol.
	for _, name := range []string{"tree", "plaxton", "ring", "chord", "symphony"} {
		if err := rcm.RegisterGeometry(name, toyFactory(name)); err == nil {
			t.Errorf("geometry name %q re-registered over a built-in", name)
		}
	}
	// An alias colliding with a built-in name is rejected even when the
	// canonical name is fresh — and the failed registration must not claim
	// the fresh name either.
	err := rcm.RegisterGeometry("alias-collision-test", toyFactory("a"), "ring")
	if err == nil {
		t.Fatal("alias collision with built-in \"ring\" accepted")
	}
	if _, lookupErr := rcm.ModelFor("alias-collision-test", rcm.Config{}); lookupErr == nil {
		t.Error("failed registration still resolvable by canonical name")
	}
}

func TestLookupUnknownName(t *testing.T) {
	if _, err := rcm.ModelFor("pastry", rcm.Config{}); err == nil {
		t.Error("unknown geometry resolved")
	}
	if _, err := rcm.Simulate(rcm.SimConfig{Protocol: "pastry", Config: rcm.Config{Bits: 8}, Q: 0.1}); err == nil {
		t.Error("unknown protocol simulated")
	}
}

func TestRegisteredGeometryFlowsThroughModel(t *testing.T) {
	if err := rcm.RegisterGeometry("flow-test", toyFactory("flow-test"), "flow-alias-test"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"flow-test", "Flow-Test", "flow-alias-test"} {
		m, err := rcm.ModelFor(name, rcm.Config{})
		if err != nil {
			t.Fatalf("ModelFor(%q): %v", name, err)
		}
		if m.Name() != "flow-test" {
			t.Errorf("ModelFor(%q).Name() = %q", name, m.Name())
		}
		// The analytic surface works end to end on the registrant.
		if _, err := m.Routability(8, 0.3); err != nil {
			t.Errorf("Routability on registered geometry: %v", err)
		}
	}
	found := false
	for _, name := range rcm.Geometries() {
		if name == "flow-test" {
			found = true
		}
	}
	if !found {
		t.Errorf("Geometries() = %v does not list the registrant", rcm.Geometries())
	}
}

// toyProtocol is a minimal overlay: every node links to its ring successor,
// so any route over fully-alive nodes succeeds in at most N-1 hops.
type toyProtocol struct{ space overlay.Space }

func (p *toyProtocol) Name() string         { return "toyproto" }
func (p *toyProtocol) Space() overlay.Space { return p.space }
func (p *toyProtocol) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	cur := src
	hops := 0
	for cur != dst {
		next := overlay.ID((uint64(cur) + 1) % p.space.Size())
		if !alive.Get(int(next)) && next != dst {
			return hops, false
		}
		cur = next
		hops++
	}
	return hops, true
}
func (p *toyProtocol) Neighbors(x overlay.ID) []overlay.ID {
	return []overlay.ID{overlay.ID((uint64(x) + 1) % p.space.Size())}
}

// TestSingleHopGrammar pins the registry grammar around the single-hop
// family: every accepted spelling resolves to the same protocol, the
// spellings are reserved against later registrations (alias collision in
// both directions), and an unknown near-miss errors with the accepted
// names listed.
func TestSingleHopGrammar(t *testing.T) {
	for _, name := range []string{"singlehop", "SingleHop", "onehop", "d1ht", "D1HT"} {
		p, err := rcm.NewProtocol(name, rcm.Config{Bits: 4, Seed: 1})
		if err != nil {
			t.Errorf("NewProtocol(%q): %v", name, err)
			continue
		}
		if p.Name() != "singlehop" {
			t.Errorf("NewProtocol(%q).Name() = %q, want singlehop", name, p.Name())
		}
	}
	// The canonical name and each alias are taken, as canonical names and
	// as aliases of a fresh name alike.
	for _, taken := range []string{"singlehop", "onehop", "d1ht"} {
		if err := rcm.RegisterProtocol(taken, nil); err == nil {
			t.Errorf("protocol name %q re-registered over singlehop", taken)
		}
		if err := rcm.RegisterProtocol("fresh-"+taken+"-test", func(cfg rcm.Config) (rcm.Protocol, error) {
			s, err := overlay.NewSpace(cfg.Bits)
			if err != nil {
				return nil, err
			}
			return &toyProtocol{space: s}, nil
		}, taken); err == nil {
			t.Errorf("alias %q accepted over singlehop's spelling", taken)
		}
	}
	// A near-miss is an unknown-name error, not a silent fallback, and the
	// message lists the accepted spellings so typos are self-diagnosing.
	_, err := rcm.NewProtocol("twohop", rcm.Config{Bits: 4, Seed: 1})
	if err == nil {
		t.Fatal("unknown protocol \"twohop\" resolved")
	}
	for _, want := range []string{"singlehop", "onehop", "d1ht"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-protocol error %q does not list %q", err, want)
		}
	}
}

func TestRegisteredProtocolFlowsThroughSimulate(t *testing.T) {
	err := rcm.RegisterProtocol("toyproto-test", func(cfg rcm.Config) (rcm.Protocol, error) {
		s, err := overlay.NewSpace(cfg.Bits)
		if err != nil {
			return nil, err
		}
		return &toyProtocol{space: s}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rcm.RegisterProtocol("toyproto-test", nil); err == nil {
		t.Error("duplicate protocol with nil factory accepted")
	}
	res, err := rcm.Simulate(rcm.SimConfig{
		Protocol: "toyproto-test",
		Config:   rcm.Config{Bits: 6, Seed: 1},
		Q:        0, // no failures: the successor chain always delivers
		Pairs:    200,
		Trials:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routability != 1 {
		t.Errorf("toy protocol routability at q=0 = %v, want 1", res.Routability)
	}
}

// noopScenario is a minimal valid scenario registrant.
type noopScenario struct{}

func (noopScenario) Name() string                { return "noop" }
func (noopScenario) Program(*eventsim.Env) error { return nil }

// nameTable adapts one of the module's name-keyed tables to the contract
// test below, through its public surface only.
type nameTable struct {
	// noun is what the table calls a registrant in registration errors.
	noun string
	// register adds a registrant whose factory calls built when it runs
	// (a nil built registers a nil factory); nil for tables closed to
	// user registration.
	register func(name string, built func(), aliases ...string) error
	// resolve builds spelling through the table. Open tables report
	// identity through built; closed ones return it.
	resolve func(spelling string) (any, error)
	names   func() []string
	// known is a built-in name and one of its aliases, for closed tables.
	known [2]string
}

// nameTables lists every table backed by the shared registry (rcm/spec).
func nameTables() []nameTable {
	return []nameTable{
		{
			noun: "geometry",
			register: func(name string, built func(), aliases ...string) error {
				var f rcm.GeometryFactory
				if built != nil {
					f = func(rcm.Config) (rcm.Geometry, error) { built(); return toyGeometry{name: name}, nil }
				}
				return rcm.RegisterGeometry(name, f, aliases...)
			},
			resolve: func(s string) (any, error) { _, err := exp.SpecFor(s, exp.Config{}); return nil, err },
			names:   rcm.Geometries,
		},
		{
			noun: "protocol",
			register: func(name string, built func(), aliases ...string) error {
				var f rcm.ProtocolFactory
				if built != nil {
					f = func(cfg rcm.Config) (rcm.Protocol, error) {
						built()
						return &toyProtocol{space: overlay.MustSpace(cfg.Bits)}, nil
					}
				}
				return rcm.RegisterProtocol(name, f, aliases...)
			},
			resolve: func(s string) (any, error) { _, err := rcm.NewProtocol(s, rcm.Config{Bits: 4}); return nil, err },
			names:   rcm.Protocols,
		},
		{
			noun: "scenario",
			register: func(name string, built func(), aliases ...string) error {
				var f eventsim.ScenarioFactory
				if built != nil {
					f = func(eventsim.Params) (eventsim.Scenario, error) { built(); return noopScenario{}, nil }
				}
				return eventsim.RegisterScenario(name, f, aliases...)
			},
			resolve: func(s string) (any, error) {
				_, err := eventsim.BuildSchedule(eventsim.Config{Overlay: eventsim.OverlayConfig{Bits: 4}, Scenario: s})
				return nil, err
			},
			names: eventsim.ScenarioNames,
		},
		{
			noun:    "transport",
			resolve: func(s string) (any, error) { return eventsim.ParseTransport(s) },
			known:   [2]string{"constant", "const"},
		},
		{
			noun: "family",
			register: func(name string, built func(), aliases ...string) error {
				var f lifetime.Factory
				if built != nil {
					f = func(string) (lifetime.Family, error) { built(); return lifetime.Exponential{}, nil }
				}
				return lifetime.Register(name, f, aliases...)
			},
			resolve: func(s string) (any, error) { _, err := lifetime.Parse(s); return nil, err },
			names:   lifetime.Names,
		},
		{
			noun: "store",
			// Every parse builds a new store: the registrant is its type.
			resolve: func(s string) (any, error) {
				st, err := node.ParseStore(s)
				if err != nil {
					return nil, err
				}
				return reflect.TypeOf(st), nil
			},
			known: [2]string{"mem", "map"},
		},
		{
			noun:    "mode flag",
			resolve: func(s string) (any, error) { return exp.ParseMode(s) },
			known:   [2]string{"sim", "static"},
		},
	}
}

// TestRegistryContract holds every name-keyed table in the module to the
// one set of naming rules rcm/spec implements: case- and space-insensitive
// resolution, aliases resolving to their canonical registrant, name /
// alias / self-alias collisions, empty names and nil factories rejected
// (a failed registration claiming nothing), Names in registration order,
// and unknown names erroring against the sorted list of every accepted
// spelling. A table that grew its own copy of the rules would drift from
// this; one that is merely an instance of the shared registry cannot.
func TestRegistryContract(t *testing.T) {
	for _, tb := range nameTables() {
		t.Run(tb.noun, func(t *testing.T) {
			slug := "contract-" + strings.ReplaceAll(tb.noun, " ", "-")
			first, alias, second := slug+"-a", slug+"-a2", slug+"-b"

			var built string // canonical name of the registrant whose factory ran last
			mark := func(name string) func() { return func() { built = name } }
			resolve := func(spelling string) (any, error) {
				built = ""
				id, err := tb.resolve(spelling)
				if id == nil {
					id = built
				}
				return id, err
			}
			sameRegistrant := func(canonical string, spellings ...string) {
				t.Helper()
				want, err := resolve(canonical)
				if err != nil || want == "" {
					t.Fatalf("resolve(%q) = %v, %v", canonical, want, err)
				}
				for _, sp := range spellings {
					if got, err := resolve(sp); err != nil || got != want {
						t.Errorf("resolve(%q) = %v, %v; want the registrant of %q", sp, got, err, canonical)
					}
				}
			}
			unknown := func(name string, listed ...string) {
				t.Helper()
				_, err := resolve(name)
				if err == nil {
					t.Fatalf("unknown name %q resolved", name)
				}
				msg := err.Error()
				from, to := strings.Index(msg, "(have "), strings.LastIndex(msg, ")")
				if !strings.Contains(msg, `"`+name+`"`) || from < 0 || to < from {
					t.Fatalf("unknown-name error %q does not quote the name and list the accepted ones", msg)
				}
				keys := strings.Split(msg[from+len("(have "):to], ", ")
				if !sort.StringsAreSorted(keys) {
					t.Errorf("accepted names not sorted: %v", keys)
				}
				for _, want := range listed {
					if i := sort.SearchStrings(keys, want); i == len(keys) || keys[i] != want {
						t.Errorf("accepted names %v do not list %q", keys, want)
					}
				}
			}

			if tb.register == nil {
				sameRegistrant(tb.known[0], strings.ToUpper(tb.known[0]), "  "+tb.known[1]+" ")
				unknown(slug+"-nope", tb.known[0], tb.known[1])
				return
			}

			if err := tb.register(strings.ToUpper(first[:1])+first[1:], mark(first), " "+strings.ToUpper(alias)+" "); err != nil {
				t.Fatalf("first registration: %v", err)
			}
			sameRegistrant(first, strings.ToUpper(first), "  "+first+"  ", alias, strings.ToUpper(alias))

			for what, tc := range map[string]struct {
				name    string
				aliases []string
				wantSub string
			}{
				"taken name":            {first, nil, tb.noun + ` name "` + first + `" already registered`},
				"taken name, recased":   {strings.ToUpper(first), nil, "already registered"},
				"alias taken as a name": {alias, nil, tb.noun + ` name "` + alias + `" already registered`},
				"name taken as alias":   {slug + "-fresh", []string{first}, tb.noun + ` alias "` + first + `" already registered`},
				"alias taken as alias":  {slug + "-fresh", []string{alias}, "already registered"},
				"self alias":            {slug + "-fresh", []string{strings.ToUpper(slug) + "-FRESH"}, tb.noun + ` "` + slug + `-fresh" aliases itself`},
				"empty name":            {"", nil, "empty " + tb.noun + " name"},
				"blank name":            {"   ", nil, "empty " + tb.noun + " name"},
				"blank alias":           {slug + "-fresh", []string{" "}, "empty " + tb.noun + " name"},
			} {
				err := tb.register(tc.name, mark(tc.name), tc.aliases...)
				if err == nil {
					t.Errorf("%s: Register(%q, %v) accepted", what, tc.name, tc.aliases)
				} else if !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("%s: error %q does not mention %q", what, err, tc.wantSub)
				}
			}
			if err := tb.register(slug+"-fresh", nil); err == nil || !strings.Contains(err.Error(), "has nil factory") {
				t.Errorf("nil factory error = %v", err)
			}
			// None of the failed registrations claimed its fresh name.
			if _, err := resolve(slug + "-fresh"); err == nil {
				t.Errorf("failed registrations left %q resolvable", slug+"-fresh")
			}

			if err := tb.register(second, mark(second)); err != nil {
				t.Fatalf("second registration: %v", err)
			}
			names := tb.names()
			if n := len(names); n < 2 || names[n-2] != first || names[n-1] != second {
				t.Errorf("Names() = %v, want registration order ending in %q, %q (canonical names only)", names, first, second)
			}
			unknown(slug+"-nope", first, alias, second)
		})
	}
}
