package rcm

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rcm/internal/lint"
)

// loadModule type-checks the module and benchmark/ once for every scan
// in this file: one load from benchmark/, whose module requires this one,
// sees both.
var loadModule = sync.OnceValues(func() ([]*lint.Package, error) {
	return lint.Load("benchmark", "./...", "rcm/...")
})

// testOnlyExports is the allowlist of TestInternalExportsHaveCallers:
// declarations outside the root facade that no binary, example or
// benchmark reaches, each with the test that needs it — as a reference
// implementation the shipping one is compared against, or as an
// accessor the test reads state through. Anything else without a caller
// is deleted, not listed.
var testOnlyExports = map[string]string{
	// Reference implementations the shipping pipeline is compared against.
	"eventsim.Schedule.OfflineAt":                         "TestBuildScheduleMatchesRun",
	"internal/core.RoutabilityBig":                        "TestRoutabilityBigOracleAgreement",
	"internal/core.Tree.ClosedFormRoutability":            "TestTreeClosedFormMatchesPipeline",
	"internal/core.GeneralizedTree.ClosedFormRoutability": "TestGeneralizedTreeClosedFormMatchesPipeline",
	"internal/markov.Chain.AbsorptionProbLinear":          "TestLinearSolverMatchesForwardOnDAG",
	"internal/markov.Chain.Simulate":                      "TestSimulateMatchesExact",
	"internal/markov.PhaseSuccess":                        "TestXORChainProductForm",
	"internal/numeric.BigEval.QPow":                       "TestBigEvalQPow",
	"internal/numeric.BigEval.ProductOneMinus":            "TestBigEvalProductOneMinus",
	"internal/numeric.RelDiff":                            "TestTreeClosedFormMatchesPipeline",
	"internal/sim.Sweep":                                  "TestGridMatchesSweep",
	"overlay.Space.HammingDist":                           "TestHammingDist",
	// Renderers the parse → render → parse round trips are checked with.
	"eventsim.TransportSpec": "TestTransportSpecRoundTrip",
	"eventsim/lifetime.Spec": "TestLifetimeSpecRoundTrip",
	// Accessors a test reads built state through.
	"eventsim.Result.WindowLatencyDist":        "TestWindowDistAccessors",
	"eventsim/lifetime.Lookup":                 "TestDocsNameOnlyWhatExists",
	"eventsim/lifetime.Names":                  "TestRegistryContract",
	"internal/dht.Symphony.NearNeighbors":      "TestSymphonyLinkStructure",
	"internal/dht.Symphony.Shortcuts":          "TestSymphonyLinkStructure",
	"internal/markov.Chain.Edges":              "TestBuilderDropsZeroEdges",
	"internal/percolation.UnionFind.Connected": "TestUnionFindBasics",
	"node.Node.ID":                             "TestRequestTableDrains",
	"node.Node.Store":                          "TestLivePutGetUDP",
	"obs.Histogram.Sum":                        "TestExactSmallQuantiles",
	"overlay.Bitset.Count":                     "TestBitsetCount",
	"overlay.MustSpace":                        "TestMustSpacePanics",
	// The hook the suite registers a misbehaving lifetime family through.
	"eventsim/lifetime.Register": "TestNonPositiveSamplesFailAllChurnScenarios",
}

// TestInternalExportsHaveCallers: every declaration outside the roots —
// top-level func, method, type, var or const, and interface method —
// is reachable from a root, or is in testOnlyExports. The roots are
// every declaration of a main package (cmd/, examples/, benchmark/), of
// the root package rcm (the documented facade), init functions and
// blank declarations. A declaration reaches the objects its syntax uses,
// generic instances resolved to their origin. A method is live when its
// receiver type is live and it is called directly, or a method of the
// same name is called through an interface, or it satisfies a standard
// library interface (error, fmt.Stringer, sort.Interface, flag.Value,
// json.Marshaler).
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	type unit struct {
		obj   types.Object
		label string // "internal/sim.Sweep", "internal/markov.Chain.Edges"
		root  bool
		recv  types.Object // a method's receiver type; nil for everything else
		std   bool         // a method a standard-library interface calls
		uses  []types.Object
	}
	units := map[types.Object]*unit{}
	var order []*unit

	stdIfaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[string]*types.Package{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = imp
		}
	}
	for _, name := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"flag", "Value"}, {"encoding/json", "Marshaler"}} {
		if p := imported[name[0]]; p != nil {
			stdIfaces = append(stdIfaces, p.Scope().Lookup(name[1]).Type().Underlying().(*types.Interface))
		}
	}
	satisfiesStd := func(recv types.Type, method string) bool {
		for _, iface := range stdIfaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, method); obj == nil {
				continue
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	testFuncs := map[string]bool{}
	testDecl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	for _, pkg := range pkgs {
		root := pkg.Types.Name() == "main" || pkg.Path == "rcm"
		tests, _ := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		for _, path := range tests {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				testFuncs[string(m[1])] = true
			}
		}
		prefix := strings.TrimPrefix(pkg.Path, "rcm/") + "."
		// add makes obj a unit reaching the objects n uses.
		add := func(obj types.Object, n ast.Node, label string) *unit {
			u := &unit{obj: obj, label: prefix + label, root: root || obj.Name() == "_" || obj.Name() == "init"}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					switch o := pkg.Info.Uses[id].(type) {
					case *types.Func:
						u.uses = append(u.uses, o.Origin())
					case nil, *types.PkgName:
					default:
						u.uses = append(u.uses, o)
					}
				}
				return true
			})
			units[obj] = u
			order = append(order, u)
			return u
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if d.Recv == nil {
						add(obj, d, d.Name.Name)
						continue
					}
					recv := obj.Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					named := recv.(*types.Named)
					u := add(obj, d, named.Obj().Name()+"."+d.Name.Name)
					u.recv, u.std = named.Obj(), satisfiesStd(named, d.Name.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := pkg.Info.Defs[s.Name]
							add(obj, s, s.Name.Name)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, name := range m.Names {
										add(pkg.Info.Defs[name], m, s.Name.Name+"."+name.Name).recv = obj
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(pkg.Info.Defs[name], s, name.Name)
							}
						}
					}
				}
			}
		}
	}

	// Two passes: the first finds what the roots reach; the second adds
	// the allowlisted declarations as roots, so what only a reference
	// implementation calls (the math/big evaluator under RoutabilityBig)
	// is not reported beside it.
	live := map[*unit]bool{}
	referenced := map[types.Object]bool{}
	calledThroughInterface := map[string]bool{}
	reach := func() {
		for changed := true; changed; {
			changed = false
			for _, u := range order {
				if live[u] {
					continue
				}
				ok := u.root || referenced[u.obj]
				if u.recv != nil && !u.root {
					ok = live[units[u.recv]] && (ok || u.std || calledThroughInterface[u.obj.Name()])
				}
				if !ok {
					continue
				}
				live[u], changed = true, true
				for _, o := range u.uses {
					referenced[o] = true
					if f, ok := o.(*types.Func); ok {
						if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							calledThroughInterface[f.Name()] = true
						}
					}
				}
			}
		}
	}
	reach()
	listed := map[string]bool{}
	for _, u := range order {
		if !live[u] && testOnlyExports[u.label] != "" {
			listed[u.label] = true
			u.root = true
		}
	}
	reach()

	var dead []string
	for _, u := range order {
		if !live[u] {
			dead = append(dead, u.label)
		}
	}
	sort.Strings(dead)
	for _, label := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or list it in testOnlyExports with the test that needs it", label)
	}
	for label, test := range testOnlyExports {
		if !listed[label] {
			t.Errorf("testOnlyExports lists %s, which is reachable from non-test code or does not exist: drop the entry", label)
		}
		if !testFuncs[test] {
			t.Errorf("testOnlyExports[%s] names test %s, which does not exist", label, test)
		}
	}
}

// unsetConfigFields is the allowlist of TestConfigFieldsHaveSetters:
// run-config fields no non-test caller sets, each with the reason it
// stays a field.
var unsetConfigFields = map[string]string{
	"cluster.Config.FaultHorizon": "the fault-conformance suite binds stall placement to its schedule's duration",
	"node.FaultConfig.Horizon":    "the fault-conformance suite binds stall placement to its schedule's duration",
	"node.ClientConfig.Bind":      "a deployment address: the default 127.0.0.1:0 only suits a client on the daemons' host",
	"node.ClientConfig.Transport": "the in-process fake a client dials through instead of a UDP socket",
}

// TestConfigFieldsHaveSetters: every exported field of the run configs
// and the sim↔live seam structs (eventsim.Config and Params, node.Config,
// ClientConfig and FaultConfig, cluster.Config) is set by some non-test file outside examples/ and
// outside the struct's own package, whose writes are its defaults —
// benchmark/ counts — or is in unsetConfigFields. A field whose only
// non-test value is its default is a constant: inline it. Setting is a
// keyed (or positional) composite literal, an assignment through a
// selector, or an &x.F flag binding; a value copied from another config
// field (MaxHops: cfg.MaxHops) counts only if that field is set,
// resolved to a fixpoint. Fields are resolved by type, so the RTO of
// one struct is never mistaken for another's.
func TestConfigFieldsHaveSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and benchmark/; skipped in -short runs")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string][]string{
		"rcm/eventsim":     {"Config", "Params"},
		"rcm/node":         {"Config", "ClientConfig", "FaultConfig"},
		"rcm/node/cluster": {"Config"},
	}
	// structKey names a target struct as "node.ClientConfig"; "" for any
	// other type.
	structKey := func(typ types.Type) string {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		pkg := named.Obj().Pkg()
		if !slices.Contains(targets[pkg.Path()], named.Obj().Name()) {
			return ""
		}
		return pkg.Name() + "." + named.Obj().Name()
	}
	fields := map[string]bool{} // every exported field of a target
	for _, pkg := range pkgs {
		for _, name := range targets[pkg.Path] {
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[pkg.Types.Name()+"."+name+"."+f.Name()] = true
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found none of the config structs")
	}

	set := map[string]bool{}
	from := map[string][]string{} // field → config fields whose value it copies
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, "rcm/examples/") {
			continue
		}
		// fieldOf names the config field e selects, "" if none.
		fieldOf := func(e ast.Expr) string {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
				return ""
			}
			if k := structKey(s.Recv()); k != "" {
				return k + "." + sel.Sel.Name
			}
			return ""
		}
		// A package's writes to its own config are its defaults.
		own := ""
		if targets[pkg.Path] != nil {
			own = pkg.Types.Name() + "."
		}
		setTo := func(field string, value ast.Expr) {
			if field == "" || own != "" && strings.HasPrefix(field, own) {
				return
			}
			if src := fieldOf(value); value != nil && src != "" {
				from[field] = append(from[field], src)
			} else {
				set[field] = true
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					k := structKey(pkg.Info.TypeOf(n))
					if k == "" {
						return true
					}
					st := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							setTo(k+"."+kv.Key.(*ast.Ident).Name, kv.Value)
						} else {
							setTo(k+"."+st.Field(i).Name(), elt)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						// x.F = v sets F; x.F.G = v and x.F[i] = v set F too.
						for e := ast.Expr(lhs); e != nil; {
							if field := fieldOf(e); field != "" {
								setTo(field, value)
								value = nil
							}
							switch x := ast.Unparen(e).(type) {
							case *ast.SelectorExpr:
								e = x.X
							case *ast.IndexExpr:
								e = x.X
							case *ast.StarExpr:
								e = x.X
							default:
								e = nil
							}
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setTo(fieldOf(n.X), nil)
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for field, srcs := range from {
			if !set[field] && slices.ContainsFunc(srcs, func(s string) bool { return set[s] }) {
				set[field], changed = true, true
			}
		}
	}

	var unset []string
	for field := range fields {
		if !set[field] && unsetConfigFields[field] == "" {
			unset = append(unset, field)
		}
	}
	sort.Strings(unset)
	for _, field := range unset {
		t.Errorf("%s is set by no non-test caller: make its default a constant, or list it in unsetConfigFields with the reason it stays", field)
	}
	for field := range unsetConfigFields {
		if !fields[field] || set[field] {
			t.Errorf("unsetConfigFields lists %s, which a non-test caller sets or which does not exist: drop the entry", field)
		}
	}
}
