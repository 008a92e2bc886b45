package lint

import (
	"go/ast"
	"go/types"
)

// Marker comments recognized by LoopOwner.
const (
	// MarkerLoopOwned on a struct field: only the loop — whichever
	// goroutine holds the runner role — may touch this field.
	MarkerLoopOwned = "rcm:loop-owned"
	// MarkerEventLoop on a method: this is the event-loop dispatch root
	// (the inbox drain); its body, and everything it calls, runs as the
	// loop.
	MarkerEventLoop = "rcm:event-loop"
	// MarkerLoopPost on a function/method: function-literal arguments
	// passed to it are executed as the loop (it posts them into the
	// loop's inbox).
	MarkerLoopPost = "rcm:loop-post"
	// MarkerLoopClaim on a function/method: it calls the rcm:event-loop
	// drain only after the inbox handed it the runner role, so those
	// calls run as the loop. Its own body is not loop code.
	MarkerLoopClaim = "rcm:loop-claim"
)

// LoopOwner enforces the single-runner ownership discipline that lets
// rcm/node route without locks: struct fields marked
// "// rcm:loop-owned" may be read or written only from code that
// provably runs as the node's loop — the drain marked
// "// rcm:event-loop", function literals posted into the loop (passed to
// a "// rcm:loop-post" method), and methods reachable from those. The
// loop is a role, not a goroutine: a function marked
// "// rcm:loop-claim" calls the drain only once the inbox has handed it
// the role, and those are the only sanctioned calls of the drain from
// outside the loop. Accesses from goroutines spawned with `go`, from
// time.AfterFunc callbacks, or from exported entry points are data races
// waiting for a scheduler change; they must post a closure into the loop
// instead.
var LoopOwner = &Analyzer{
	Name: "loopowner",
	Doc:  "restrict rcm:loop-owned struct fields to code reachable from the rcm:event-loop dispatch (posted closures included)",
	Run:  runLoopOwner,
}

func runLoopOwner(pass *Pass) error {
	owned := collectLoopOwnedFields(pass.Pkg)
	if len(owned) == 0 {
		return nil
	}

	ctx := &loopContext{
		pass:     pass,
		owned:    owned,
		loop:     make(map[ast.Node]bool),
		calls:    make(map[ast.Node][]*types.Func),
		declOf:   make(map[*types.Func]ast.Node),
		parentFn: make(map[ast.Node]ast.Node),
	}
	ctx.build()
	ctx.propagate()
	ctx.report()
	ctx.reportLaunderedCalls()
	return nil
}

// collectLoopOwnedFields returns the field variables marked
// rcm:loop-owned (doc comment or trailing line comment).
func collectLoopOwnedFields(pkg *Package) map[*types.Var]bool {
	owned := make(map[*types.Var]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !commentHasMarker([]*ast.CommentGroup{field.Doc, field.Comment}, MarkerLoopOwned) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						owned[v] = true
					}
				}
			}
			return true
		})
	}
	return owned
}

// loopContext is the per-package call-graph state for one LoopOwner run.
type loopContext struct {
	pass  *Pass
	owned map[*types.Var]bool

	// loop marks function nodes (FuncDecl or FuncLit) proven to run on
	// the event-loop goroutine.
	loop map[ast.Node]bool
	// calls lists, per function node, the package-level functions and
	// methods it calls directly (excluding calls inside nested literals).
	calls map[ast.Node][]*types.Func
	// declOf maps a function object to its declaration node.
	declOf map[*types.Func]ast.Node
	// parentFn maps each function node to the function lexically
	// containing it (nil for FuncDecls).
	parentFn map[ast.Node]ast.Node
}

// build seeds the loop set from markers and posting sites, and records
// the direct-call graph.
func (c *loopContext) build() {
	info := c.pass.Pkg.Info
	walkStack(c.pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := info.Defs[n.Name].(*types.Func); ok {
				c.declOf[fn] = n
			}
			if commentHasMarker([]*ast.CommentGroup{n.Doc}, MarkerEventLoop) {
				c.loop[n] = true
			}

		case *ast.FuncLit:
			c.parentFn[n] = enclosingFunc(stack)

		case *ast.CallExpr:
			if encl := enclosingFunc(stack); encl != nil {
				if fn := calleeFunc(info, n); fn != nil {
					c.calls[encl] = append(c.calls[encl], fn)
				}
			}
			// Function literals handed to a loop-post method are
			// executed on the loop.
			if fn := calleeFunc(info, n); fn != nil {
				if decl, ok := c.declOf[fn]; ok && isMarked(decl, MarkerLoopPost) {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							c.loop[lit] = true
						}
					}
				}
			}
		}
		return true
	})
}

// propagate closes the loop set over direct calls: a function called
// from loop context runs on the loop goroutine.
//
// The closure deliberately does NOT descend into nested function
// literals — a literal inside a loop method runs on the loop only if it
// is itself posted (a `go` statement or timer callback inside a loop
// method leaves the loop goroutine).
func (c *loopContext) propagate() {
	// declOf must be complete before build()'s loop-post detection is
	// trustworthy for forward references, so re-scan calls for loop-post
	// literals now that every declaration is indexed.
	info := c.pass.Pkg.Info
	walkStack(c.pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if decl, ok := c.declOf[fn]; ok && isMarked(decl, MarkerLoopPost) {
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						c.loop[lit] = true
					}
				}
			}
		}
		return true
	})

	for changed := true; changed; {
		changed = false
		for node, marked := range c.loop {
			if !marked {
				continue
			}
			for _, callee := range c.calls[node] {
				if decl, ok := c.declOf[callee]; ok && !c.loop[decl] {
					c.loop[decl] = true
					changed = true
				}
			}
		}
	}
}

// report flags every access to a loop-owned field from outside the
// loop set.
func (c *loopContext) report() {
	info := c.pass.Pkg.Info
	walkStack(c.pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok || !c.owned[field] {
			return true
		}
		encl := enclosingFunc(stack)
		if encl == nil || c.loop[encl] {
			return true
		}
		c.pass.Reportf(sel.Pos(), "loop-owned field %s %s; only the %s dispatch and closures posted into the loop may touch it — post a command instead",
			field.Name(), c.describeContext(encl, stack), MarkerEventLoop)
		return true
	})
}

// reportLaunderedCalls closes the other escape hatch: a non-loop
// function calling a loop-reachable method that touches owned state
// runs that method on the wrong goroutine, even though the field access
// itself sits in blessed code. The only legitimate such call is an
// rcm:loop-claim function's call of the rcm:event-loop drain.
func (c *loopContext) reportLaunderedCalls() {
	touchers := c.stateTouchers()
	info := c.pass.Pkg.Info
	walkStack(c.pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		decl, ok := c.declOf[fn]
		if !ok || !c.loop[decl] || !touchers[decl] {
			return true
		}
		encl := enclosingFunc(stack)
		if encl == nil || c.loop[encl] {
			return true
		}
		// Allow the drain's call by a function that claimed the role.
		if isMarked(encl, MarkerLoopClaim) && isMarked(decl, MarkerEventLoop) {
			return true
		}
		c.pass.Reportf(call.Pos(), "call to %s, which touches loop-owned state, from outside the event loop; post a closure into the loop instead", fn.Name())
		return true
	})
}

// isMarked reports whether decl is a function declaration whose doc
// comment carries marker.
func isMarked(decl ast.Node, marker string) bool {
	fd, ok := decl.(*ast.FuncDecl)
	return ok && commentHasMarker([]*ast.CommentGroup{fd.Doc}, marker)
}

// stateTouchers returns the function nodes that access a loop-owned
// field, closed backwards over the call graph (a caller of a toucher is
// a toucher).
func (c *loopContext) stateTouchers() map[ast.Node]bool {
	touchers := make(map[ast.Node]bool)
	info := c.pass.Pkg.Info
	walkStack(c.pass.Pkg, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		if field, ok := selection.Obj().(*types.Var); ok && c.owned[field] {
			if encl := enclosingFunc(stack); encl != nil {
				touchers[encl] = true
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for node, callees := range c.calls {
			if touchers[node] {
				continue
			}
			for _, callee := range callees {
				if decl, ok := c.declOf[callee]; ok && touchers[decl] {
					touchers[node] = true
					changed = true
					break
				}
			}
		}
	}
	return touchers
}

// describeContext explains where the illegal access sits, so the fix
// (post into the loop) is obvious from the message alone.
func (c *loopContext) describeContext(encl ast.Node, stack []ast.Node) string {
	if lit, ok := encl.(*ast.FuncLit); ok {
		// Classify the literal by how it escapes the loop goroutine.
		for i := len(stack) - 1; i >= 0; i-- {
			switch anc := stack[i].(type) {
			case *ast.GoStmt:
				if ast.Unparen(anc.Call.Fun) == lit {
					return "accessed from a goroutine spawned with go"
				}
			case *ast.CallExpr:
				fn := calleeFunc(c.pass.Pkg.Info, anc)
				if fn == nil {
					continue
				}
				for _, arg := range anc.Args {
					if ast.Unparen(arg) == lit {
						return "accessed from a callback passed to " + fn.Name()
					}
				}
			}
		}
		return "accessed from a function literal not posted into the loop"
	}
	if fd, ok := encl.(*ast.FuncDecl); ok {
		if fd.Name.IsExported() {
			return "accessed from exported entry point " + fd.Name.Name
		}
		return "accessed from " + fd.Name.Name + ", which is not reachable from the event-loop dispatch"
	}
	return "accessed outside the event loop"
}
