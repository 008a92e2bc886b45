// This file is rcmlint's engine: a small, dependency-free analogue of
// golang.org/x/tools/go/analysis. The x/tools shape (Analyzer, Pass,
// Diagnostic, want-comment golden tests) is kept deliberately so the
// suite can migrate onto the real go/analysis driver if the module ever
// takes on the dependency; the engine itself is built only on go/ast,
// go/types and the go command. See doc.go for the package overview and
// the invariant each analyzer guards.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// All is the rcmlint suite in reporting order — what cmd/rcmlint runs
// and what TestRepoClean holds the whole module to.
var All = []*Analyzer{Boundary, DetSource, LoopOwner, RegistryDiscipline}

// An Analyzer describes one invariant checker. Run inspects a single
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name> <reason>" suppression comments.
	Name string
	// Doc is the one-line summary printed by rcmlint -list.
	Doc string
	// Run inspects pass.Pkg and calls pass.Reportf for each finding.
	Run func(pass *Pass) error
}

// A Package is one loaded, type-checked package — the unit an Analyzer
// inspects.
type Package struct {
	// Path is the import path ("rcm/eventsim").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
}

// A Pass carries one (Analyzer, Package) pairing plus the diagnostic
// sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, located and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// AllowPrefix introduces a suppression comment:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory — an unexplained suppression is itself a diagnostic —
// and the analyzer name must exist, so stale suppressions fail loudly
// instead of rotting.
const AllowPrefix = "//lint:allow"

// suppression is one parsed //lint:allow comment.
type suppression struct {
	analyzer string
	file     string
	line     int
}

// Run applies every analyzer to every package, filters findings
// through the //lint:allow suppression grammar, and returns the
// surviving diagnostics sorted by position. Malformed suppressions are
// returned as diagnostics from the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	var allows []suppression
	for _, pkg := range pkgs {
		a, bad := parseSuppressions(pkg, known)
		allows = append(allows, a...)
		diags = append(diags, bad...)

		for _, an := range analyzers {
			pass := &Pass{Analyzer: an, Pkg: pkg, diags: &diags}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, an.Name, err)
			}
		}
	}

	// Index suppressions by (file, line, analyzer); a comment covers its
	// own line and the one below it.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	allowed := make(map[key]bool, 2*len(allows))
	for _, s := range allows {
		allowed[key{s.file, s.line, s.analyzer}] = true
		allowed[key{s.file, s.line + 1, s.analyzer}] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "lint" && allowed[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// parseSuppressions scans pkg's comments for //lint:allow directives,
// returning the well-formed ones and a diagnostic for each malformed
// one (missing analyzer, unknown analyzer, missing reason).
func parseSuppressions(pkg *Package, known map[string]bool) ([]suppression, []Diagnostic) {
	var allows []suppression
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					bad = append(bad, Diagnostic{
						Analyzer: "lint", Pos: pos,
						Message: "suppression names no analyzer (want //lint:allow <analyzer> <reason>)",
					})
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{
						Analyzer: "lint", Pos: pos,
						Message: fmt.Sprintf("suppression names unknown analyzer %q", fields[0]),
					})
				case len(fields) == 1:
					bad = append(bad, Diagnostic{
						Analyzer: "lint", Pos: pos,
						Message: fmt.Sprintf("suppression of %q gives no reason (want //lint:allow %s <reason>)", fields[0], fields[0]),
					})
				default:
					allows = append(allows, suppression{analyzer: fields[0], file: pos.Filename, line: pos.Line})
				}
			}
		}
	}
	return allows, bad
}

// walkStack traverses every file of pkg, calling fn with each node and
// the stack of its ancestors (outermost first, excluding n itself).
// Returning false skips n's children.
func walkStack(pkg *Package, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				// No push: Inspect delivers no nil pop for a skipped node.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// enclosingFunc returns the innermost function (FuncDecl or FuncLit)
// in stack, or nil when n sits outside any function body.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions and
// dynamic calls through plain function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func isMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// commentHasMarker reports whether any comment in the group contains
// the given marker word (e.g. "rcm:loop-owned").
func commentHasMarker(groups []*ast.CommentGroup, marker string) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			for _, field := range strings.Fields(strings.TrimLeft(c.Text, "/* ")) {
				if field == marker {
					return true
				}
			}
		}
	}
	return false
}
