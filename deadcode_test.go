package rcm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
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
	// rcm/internal package, bare identifiers as names of pkg, and
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
			if !strings.HasPrefix(p, "rcm/internal/") {
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
