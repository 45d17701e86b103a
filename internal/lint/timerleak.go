package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// TimerleakAnalyzer tracks Engine.After / Engine.AfterTo / Engine.Every
// handles bound to a local variable (matched structurally on a receiver type named
// Engine): on every path out of the function the handle must be
// cancelled (Event.Cancel / Ticker.Stop), rebound, or escape to an
// owner (stored to a field, captured by a closure, returned, passed
// on, or read as a method value like `t.Stop`). Discarding the call
// result is the sanctioned fire-and-forget idiom and is never flagged —
// binding the handle declares an intent to manage it, and the
// generation-checked handles make a dropped binding memory-safe but
// *control*-unsafe: the event still fires, and nothing can cancel it
// anymore. Query methods (Event.Canceled) and comparisons do not
// consume the handle.
var TimerleakAnalyzer = &Analyzer{
	Name: "timerleak",
	Doc:  "require bound Engine.After/AfterTo/Every handles to be cancelled, rebound, or escape on all paths",
	Run:  runTimerleak,
}

// timerOrigin is one tracked `h := e.After(...)` / `t := e.Every(...)`.
type timerOrigin struct {
	assign *ast.AssignStmt
	call   *ast.CallExpr
	v      *types.Var
	method string // "After", "AfterTo" or "Every"
}

func runTimerleak(p *Package) []Finding {
	if strings.HasSuffix(p.ImportPath, "internal/simnet") {
		return nil // the engine implementation itself
	}
	var out []Finding
	for _, fb := range flowBodies(p) {
		out = append(out, timerleakBody(fb)...)
	}
	return out
}

func timerleakBody(fb funcBody) []Finding {
	origins := timerOrigins(fb)
	if len(origins) == 0 {
		return nil
	}
	g := fb.buildCFG()
	parents := parentMap(fb.body)
	var out []Finding
	for _, o := range origins {
		o := o
		trace := scanOpenPath(fb.p.Fset, g, o.assign,
			fmt.Sprintf("%s (%s)", o.method, shortPosAt(fb.p.Fset, o.call.Pos())),
			func(n ast.Node) bool { return timerSettles(fb.p, parents, n, o.v) },
			nil, // handles are generation-checked values: no nil regime
		)
		if trace == nil {
			continue
		}
		out = append(out, Finding{fb.p.Fset.Position(o.call.Pos()), "timerleak",
			fmt.Sprintf("Engine.%s handle %q may leave %s still armed on path: %s; cancel it, rebind it, or discard the result deliberately — a dropped handle is memory-safe (generation-checked) but its timer still fires with no way left to cancel",
				o.method, o.v.Name(), fb.name, trace)})
	}
	return out
}

// timerMethods are the Engine methods whose handle timerleak tracks.
var timerMethods = map[string]bool{"After": true, "AfterTo": true, "Every": true}

// timerOrigins finds handle bindings in the body's own statements.
func timerOrigins(fb funcBody) []timerOrigin {
	var out []timerOrigin
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(fb.p, call)
		if fn == nil || recvTypeName(fn) != "Engine" {
			return true
		}
		if !timerMethods[fn.Name()] {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v := lhsVarOf(fb.p, id)
		if v == nil {
			return true
		}
		out = append(out, timerOrigin{assign: as, call: call, v: v, method: fn.Name()})
		return true
	})
	return out
}

// timerSettles reports whether node n settles handle v. Cancel/Stop
// calls terminate it; method-value reads, captures, stores, returns and
// argument passes escape it; rebinding replaces it. Comparisons and
// query method calls (Canceled) only observe it.
func timerSettles(p *Package, parents map[ast.Node]ast.Node, n ast.Node, v *types.Var) bool {
	settled := false
	ast.Inspect(n, func(m ast.Node) bool {
		if settled {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || useVar(p, id) != v && defVarOf(p, id) != v {
			return true
		}
		if timerUseSettles(p, parents, id) {
			settled = true
			return false
		}
		return true
	})
	return settled
}

func timerUseSettles(p *Package, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	if insideFuncLit(parents, id) {
		return true // capture: the closure owns the handle now
	}
	switch par := parents[id].(type) {
	case *ast.BinaryExpr:
		if isComparison(par.Op) {
			return false
		}
	case *ast.SelectorExpr:
		if call, ok := parents[par].(*ast.CallExpr); ok && call.Fun == ast.Expr(par) {
			switch par.Sel.Name {
			case "Cancel", "Stop":
				return true // the cancellation itself
			default:
				return false // query (Canceled, ...): observation only
			}
		}
		// Method value (`t.Stop` handed somewhere) or field read:
		// ownership moved out of this frame.
		return true
	case *ast.AssignStmt:
		return true // rebind (LHS) or store (RHS)
	}
	// Call arguments, returns, composite literals, address-of, …: escape.
	return true
}
