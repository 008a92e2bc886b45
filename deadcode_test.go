package rcm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rcm/internal/lint"
)

// testOnlyExports is the allowlist of TestInternalExportsHaveCallers:
// declarations of internal/ packages that no non-test file reaches, each with the test that needs it — as a reference
// implementation the shipping one is compared against, or as an
// accessor the test reads state through. Anything else without a caller
// is deleted, not listed.
var testOnlyExports = map[string]string{
	// Reference implementations the shipping pipeline is compared against.
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
	// Accessors a test reads built state through.
	"internal/dht.Symphony.NearNeighbors":      "TestSymphonyLinkStructure",
	"internal/dht.Symphony.Shortcuts":          "TestSymphonyLinkStructure",
	"internal/markov.Chain.Edges":              "TestBuilderDropsZeroEdges",
	"internal/percolation.UnionFind.Connected": "TestUnionFindBasics",
}

// interfaceMethods are method names called through standard-library
// interfaces (fmt.Stringer, error, sort.Interface, flag.Value, ...), so
// no selector in this module names them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "Set": true,
}

// TestInternalExportsHaveCallers: every top-level func, method, type, var
// or const of an internal/ package — the exported ones the compiler
// cannot flag, and the unexported ones it does not — is reachable from
// some non-test file outside internal/ (cmd/, the public packages,
// benchmark/, examples/), or is in testOnlyExports. Reachability is by
// name: a declaration is live when a live declaration, or any file
// outside internal/, mentions it — pkg.Name through that file's import
// of the package, a bare Name inside the package, or .Name for a method
// of a live type. Public packages are API and exempt.
func TestInternalExportsHaveCallers(t *testing.T) {
	type key struct{ pkg, name string } // pkg "" = a method name, matched across packages
	type unit struct {
		label string // "internal/sim.Sweep", "internal/markov.Chain.Edges"
		key   key
		recv  key // a method's receiver type; zero for everything else
		refs  []key
	}
	var units []*unit
	referenced := map[key]bool{}
	for name := range interfaceMethods {
		referenced[key{"", name}] = true
	}

	// refsOf collects every name n mentions: alias.Name for an imported
	// package of this module (rcm.Simulate names a function of rcm, not
	// every method called Simulate), bare identifiers as names of pkg, and
	// selector / interface method names as method references.
	refsOf := func(n ast.Node, pkg string, imports map[string]string) []key {
		var out []key
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					out = append(out, key{imports[id.Name], x.Sel.Name})
					return false
				}
				out = append(out, key{"", x.Sel.Name})
				ast.Inspect(x.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, name := range m.Names {
						out = append(out, key{"", name.Name})
					}
				}
			case *ast.Ident:
				out = append(out, key{pkg, x.Name})
			}
			return true
		}
		ast.Inspect(n, visit)
		return out
	}

	testFuncs := map[string]bool{}
	testDecl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || path == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				testFuncs[string(m[1])] = true
			}
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "rcm" && !strings.HasPrefix(p, "rcm/") {
				continue
			}
			alias := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				alias = im.Name.Name
			}
			imports[alias] = strings.TrimPrefix(p, "rcm/")
		}
		if !strings.HasPrefix(pkg, "internal/") {
			for _, k := range refsOf(f, pkg, imports) {
				referenced[k] = true
			}
			return nil
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use of itself: scan the
				// signature and body only.
				u := &unit{label: pkg + "." + d.Name.Name, key: key{pkg, d.Name.Name}, refs: refsOf(d.Type, pkg, imports)}
				if d.Body != nil {
					u.refs = append(u.refs, refsOf(d.Body, pkg, imports)...)
				}
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					for done := false; !done; {
						switch x := recv.(type) {
						case *ast.StarExpr:
							recv = x.X
						case *ast.IndexExpr:
							recv = x.X
						case *ast.IndexListExpr:
							recv = x.X
						default:
							done = true
						}
					}
					u.recv = key{pkg, recv.(*ast.Ident).Name}
					u.key.pkg = ""
					u.label = pkg + "." + u.recv.name + "." + d.Name.Name
				}
				if d.Name.Name == "init" {
					referenced[u.key] = true
				}
				units = append(units, u)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						units = append(units, &unit{label: pkg + "." + s.Name.Name, key: key{pkg, s.Name.Name}, refs: refsOf(s.Type, pkg, imports)})
					case *ast.ValueSpec:
						var refs []key
						if s.Type != nil {
							refs = refsOf(s.Type, pkg, imports)
						}
						for _, v := range s.Values {
							refs = append(refs, refsOf(v, pkg, imports)...)
						}
						for _, name := range s.Names {
							units = append(units, &unit{label: pkg + "." + name.Name, key: key{pkg, name.Name}, refs: refs})
							if name.Name == "_" {
								referenced[key{pkg, "_"}] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two passes: the first finds what non-test code reaches; the second
	// adds the allowlisted declarations as roots, so what only a
	// reference implementation calls (the math/big evaluator under
	// RoutabilityBig) is not reported beside it.
	live := map[*unit]bool{}
	reach := func() {
		for changed := true; changed; {
			changed = false
			for _, u := range units {
				if live[u] || !referenced[u.key] || (u.recv != key{} && !referenced[u.recv]) {
					continue
				}
				live[u], changed = true, true
				for _, r := range u.refs {
					referenced[r] = true
				}
			}
		}
	}
	reach()
	listed := map[string]bool{}
	for _, u := range units {
		if !live[u] && testOnlyExports[u.label] != "" {
			listed[u.label] = true
			referenced[u.key], referenced[u.recv] = true, true
		}
	}
	reach()

	sort.Slice(units, func(i, j int) bool { return units[i].label < units[j].label })
	for _, u := range units {
		if !live[u] {
			t.Errorf("%s has no caller outside tests: delete it, or list it in testOnlyExports with the test that needs it", u.label)
		}
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
	// One load from benchmark/, whose module requires this one, sees both.
	pkgs, err := lint.Load("benchmark", "./...", "rcm/...")
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
