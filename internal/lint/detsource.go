package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetPackages lists the determinism-critical import paths (patterns as
// in BoundaryRules): every layer that feeds the fixed-(Seed, Shards)
// bit-identity contract — the static model, the simulators, the event
// engine and the registries/spec grammar they resolve names through —
// and the live node, whose replay on a virtual network is a function of
// its schedule. Inside these packages all randomness must flow from
// seeded sources (overlay.RNG, rand.New), time from the engine clock or
// the node's clock (rcm/node/internal/clock, whose wall implementation
// is the one sanctioned wall-clock site), and ordered output from
// totally-ordered iteration.
var DetPackages = []string{
	"rcm/node/...",
	"rcm/eventsim/...",
	"rcm/fault/...",
	"rcm/overlay/...",
	"rcm/replica/...",
	"rcm/spec/...",
	"rcm/obs/...",
	"rcm/exp/...",
	"rcm/internal/core",
	"rcm/internal/dht",
	"rcm/internal/sim",
	"rcm/internal/registry",
	"rcm/internal/numeric",
	"rcm/internal/percolation",
	"rcm/internal/markov",
	"rcm/internal/table",
	"rcm/internal/figures",
}

// forbiddenCalls maps package-level functions to the reason they break
// reproducibility inside determinism-critical packages.
var forbiddenCalls = map[[2]string]string{
	{"time", "Now"}:       "wall-clock read",
	{"time", "Since"}:     "wall-clock read",
	{"time", "Until"}:     "wall-clock read",
	{"time", "Sleep"}:     "wall-clock dependence",
	{"time", "After"}:     "wall-clock timer",
	{"time", "AfterFunc"}: "wall-clock timer",
	{"time", "NewTimer"}:  "wall-clock timer",
	{"time", "NewTicker"}: "wall-clock timer",
	{"time", "Tick"}:      "wall-clock timer",
	{"os", "Getenv"}:      "environment-dependent control flow",
	{"os", "LookupEnv"}:   "environment-dependent control flow",
	{"os", "Environ"}:     "environment-dependent control flow",
	// A core count may size a pool whose output a test pins independent of
	// it (//lint:allow, naming the test); it must never shape a sample.
	{"runtime", "GOMAXPROCS"}: "host-dependent control flow",
	{"runtime", "NumCPU"}:     "host-dependent control flow",
}

// globalRandAllowed names the math/rand functions that do NOT draw from
// the process-global source and are therefore fine: explicit
// constructors that the caller must seed.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes an explicit *rand.Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// DetSource forbids nondeterministic inputs in determinism-critical
// packages: wall-clock and timer reads, the process-global math/rand
// source, environment and core-count reads, and map iteration that feeds an ordered
// sink (channel sends, writer/encoder calls, or appends to an outer
// slice that is never sorted afterwards — Go randomizes map iteration
// order on purpose, so each of those turns a map walk into a
// run-to-run diff).
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "forbid wall clocks, global math/rand, env and core-count reads and order-sensitive map iteration in determinism-critical packages",
	Run:  runDetSource,
}

func runDetSource(pass *Pass) error {
	critical := false
	for _, pat := range DetPackages {
		if matchPattern(pass.Pkg.Path, pat) {
			critical = true
			break
		}
	}
	if !critical {
		return nil
	}
	info := pass.Pkg.Info

	walkStack(pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		case *ast.Ident:
			// A package-level math/rand function referenced as a value
			// (stored, passed as callback) draws from the global source
			// when eventually called; CallExpr checking alone would miss
			// it.
			if fn, ok := info.Uses[n].(*types.Func); ok && isGlobalRandFunc(fn) {
				pass.Reportf(n.Pos(), "reference to math/rand.%s uses the process-global, unseeded source; draw from a seeded generator (overlay.RNG or rand.New) instead", fn.Name())
			}
		}
		return true
	})
	return nil
}

// checkCall flags forbidden package-level calls. (Global math/rand
// functions are caught at the Ident level, covering value references
// too.)
func checkCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || isMethod(fn) || fn.Pkg() == nil {
		return
	}
	if reason, bad := forbiddenCalls[[2]string{fn.Pkg().Path(), fn.Name()}]; bad {
		pass.Reportf(call.Pos(), "%s.%s in a determinism-critical package (%s); derive it from the simulation's virtual clock or configuration instead", fn.Pkg().Name(), fn.Name(), reason)
	}
}

// isGlobalRandFunc reports whether fn is a math/rand (or v2)
// package-level function drawing from the process-global source.
func isGlobalRandFunc(fn *types.Func) bool {
	if fn.Pkg() == nil || isMethod(fn) {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	return !globalRandAllowed[fn.Name()]
}

// checkMapRange flags `for ... range m` over a map (or over
// maps.Keys/maps.Values of one) whose body feeds an ordered sink.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	if !rangesOverMap(pass.Pkg.Info, rng.X) {
		return
	}
	encl := enclosingFuncBody(stack)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: map order is randomized, so the receiver observes a different order every run; iterate sorted keys instead")
		case *ast.CallExpr:
			if name, sink := orderedSinkCall(pass.Pkg.Info, n); sink {
				pass.Reportf(n.Pos(), "%s inside map iteration writes rows in randomized map order; collect and sort before writing", name)
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, n, rng, encl)
		}
		return true
	})
}

// rangesOverMap reports whether x (the range operand) is a map, or a
// direct maps.Keys/maps.Values call (an iterator with the same
// randomized order).
func rangesOverMap(info *types.Info, x ast.Expr) bool {
	if tv, ok := info.Types[x]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return true
		}
	}
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
			return true
		}
	}
	return false
}

// orderedSinkCall reports whether call writes to an ordered sink: an
// fmt.Fprint* call, or a method named Write*/Encode* (io.Writer,
// csv.Writer, json.Encoder, strings.Builder, ...).
func orderedSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
		return "fmt." + name, true
	}
	if isMethod(fn) && (hasPrefix(name, "Write") || hasPrefix(name, "Encode")) {
		return "method " + name, true
	}
	return "", false
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// checkMapRangeAppend flags `outer = append(outer, ...)` inside a map
// range when outer is declared outside the loop and never passed to a
// sort call later in the enclosing function — the one pattern where map
// iteration legitimately feeds a slice is collect-then-sort.
func checkMapRangeAppend(pass *Pass, assign *ast.AssignStmt, rng *ast.RangeStmt, enclBody *ast.BlockStmt) {
	info := pass.Pkg.Info
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) || i >= len(assign.Lhs) {
			continue
		}
		target, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(target)
		if obj == nil || insideRange(obj.Pos(), rng) {
			continue // loop-local accumulator: ordering is confined to the loop
		}
		if enclBody != nil && sortedAfter(info, enclBody, rng, obj) {
			continue
		}
		pass.Reportf(assign.Pos(), "append to %s inside map iteration without a later sort: the slice's order changes every run; sort it (sort.* / slices.Sort*) before ordered use or iterate sorted keys", target.Name)
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func insideRange(pos token.Pos, rng *ast.RangeStmt) bool {
	return pos >= rng.Pos() && pos <= rng.End()
}

// sortedAfter reports whether, after the range statement, the enclosing
// function passes obj to a sort call (sort.Strings, sort.Slice,
// slices.Sort, slices.SortFunc, ...).
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if (pkg != "sort" && pkg != "slices") || !hasPrefix(fn.Name(), "Sort") && !isSortConvenience(fn.Name()) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortConvenience covers sort's non-"Sort"-prefixed sorters.
func isSortConvenience(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Stable", "Slice", "SliceStable":
		return true
	}
	return false
}

// mentionsObject reports whether expr references obj.
func mentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFuncBody returns the body of the innermost enclosing
// function, or nil at package level.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	switch f := enclosingFunc(stack).(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}
