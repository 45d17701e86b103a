package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MaporderAnalyzer flags `for range` over a map whose body has
// order-sensitive side effects: appending to a slice, sending on a
// channel, calling into the event-carrying packages (simnet, sched,
// comm), accumulating floats (x += v, x -= v, x *= v, x = x + v), or
// letting the range key or value escape — a `return` of it, or a plain
// `=` store of it into a variable (or field) declared before the loop.
// Go randomizes map iteration order per run, so any of these leaks
// nondeterminism into event sequencing or result tables, and an escape
// caught here cannot reach the event heap through later calls. Float
// addition is not associative, so even a sum of deterministic inputs
// changes its low-order bits with the order. Integer sums and the
// extremum idiom `if v > best { best = v }` stay silent: no order
// changes their result.
//
// The sorted-keys idiom stays silent: a loop that only appends to slices
// which are then passed to a sort/slices call later in the same block is
// the sanctioned way to get a deterministic order out of a map.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-sensitive side effects (append/send/float accumulation/simnet/sched/comm/key or value escape) without sorting",
	Run:  runMaporder,
}

// maporderSensitive are the package-path suffixes whose functions carry
// events or scheduling decisions; calling them in map order reorders the
// simulation between runs.
var maporderSensitive = []string{"internal/simnet", "internal/sched", "internal/comm"}

type mapEffect struct {
	pos token.Pos
	// desc describes the effect for the finding message.
	desc string
	// appendTarget is the identifier appended to for x = append(x, ...)
	// effects, or "" when the effect cannot be excused by a later sort.
	appendTarget string
}

func runMaporder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				if ls, ok := st.(*ast.LabeledStmt); ok {
					st = ls.Stmt
				}
				rs, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := p.Info.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				out = append(out, checkMapRange(p, rs, list[i+1:])...)
			}
			return true
		})
	}
	return out
}

// checkMapRange inspects one map-range statement. tail is the rest of the
// enclosing statement list, searched for sort calls that excuse pure
// key/value collection.
func checkMapRange(p *Package, rs *ast.RangeStmt, tail []ast.Stmt) []Finding {
	effects := collectEffects(p, rs)
	if len(effects) == 0 {
		return nil
	}
	// Sorted-keys idiom: every effect is an append into a slice that a
	// later statement in the same block sorts.
	allSorted := true
	for _, e := range effects {
		if e.appendTarget == "" || !sortedInTail(p, e.appendTarget, tail) {
			allSorted = false
			break
		}
	}
	if allSorted {
		return nil
	}
	e := effects[0]
	msg := fmt.Sprintf("map iteration %s; map order is randomized per run — collect and sort the keys first", e.desc)
	if len(effects) > 1 {
		msg += fmt.Sprintf(" (%d order-sensitive sites in this loop)", len(effects))
	}
	return []Finding{{p.Fset.Position(rs.Pos()), "maporder", msg}}
}

// collectEffects walks a loop body (including closures scheduled from it —
// the order closures are *registered* in already depends on map order) and
// records every order-sensitive side effect.
func collectEffects(p *Package, rs *ast.RangeStmt) []mapEffect {
	body := rs.Body
	vars := make(map[types.Object]bool) // the range key and value
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && p.Info.ObjectOf(id) != nil {
			vars[p.Info.ObjectOf(id)] = true
		}
	}
	// Map append calls to their assignment target so the sorted-keys
	// idiom can be recognized, and mark the stores the extremum idiom
	// guards.
	appendTarget := make(map[*ast.CallExpr]string)
	extremum := make(map[*ast.AssignStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			markExtremum(ifs, extremum)
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(p, call) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				appendTarget[call] = id.Name
			}
		}
		return true
	})

	var effects []mapEffect
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			effects = append(effects, mapEffect{x.Pos(), "sends on a channel", ""})
		case *ast.AssignStmt:
			if acc := floatAccum(p, x); acc != "" {
				effects = append(effects, mapEffect{x.Pos(),
					"accumulates floats into " + acc + " (FP addition is not associative, so the result's bits change with the order)", ""})
			} else if dst := escapeStore(p, x, rs, vars); dst != "" && !extremum[x] {
				effects = append(effects, mapEffect{x.Pos(),
					"stores the range key or value into " + dst + " (which iteration writes last depends on the order)", ""})
			}
		case *ast.CallExpr:
			if isBuiltinAppend(p, x) {
				target := appendTarget[x]
				desc := "appends to a slice"
				if target != "" {
					desc = "appends to " + target
				}
				effects = append(effects, mapEffect{x.Pos(), desc, target})
				return true
			}
			fn := calleeFunc(p, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			for _, suffix := range maporderSensitive {
				if strings.HasSuffix(fn.Pkg().Path(), suffix) {
					effects = append(effects, mapEffect{x.Pos(),
						"calls " + fn.Pkg().Name() + "." + fn.Name(), ""})
					break
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a closure's return leaves the closure, not the loop
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if mentionsVar(p, r, vars) {
					effects = append(effects, mapEffect{x.Pos(),
						"returns the range key or value (which entry comes first depends on the order)", ""})
					break
				}
			}
		}
		return true
	})
	return effects
}

// escapeStore names the target of a plain `x = e` or `x.f = e` whose e
// mentions the range key or value and whose x is declared before the
// loop, else "". x = append(x, k) is left to the append effect and its
// sorted-keys excuse.
func escapeStore(p *Package, as *ast.AssignStmt, rs *ast.RangeStmt, vars map[types.Object]bool) string {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return ""
	}
	for i, lhs := range as.Lhs {
		if call, ok := as.Rhs[i].(*ast.CallExpr); (ok && isBuiltinAppend(p, call)) || !mentionsVar(p, as.Rhs[i], vars) {
			continue
		}
		root := lhs
		for sel, ok := root.(*ast.SelectorExpr); ok; sel, ok = root.(*ast.SelectorExpr) {
			root = sel.X
		}
		id, ok := root.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := p.Info.Uses[id].(*types.Var); ok && (v.Pos() < rs.Pos() || v.Pos() >= rs.End()) {
			return types.ExprString(lhs)
		}
	}
	return ""
}

// markExtremum records the stores `if v > best { best = v }` guards, in
// either operand order and with any of < > <= >=.
func markExtremum(ifs *ast.IfStmt, extremum map[*ast.AssignStmt]bool) {
	cmp, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.LSS && cmp.Op != token.GTR && cmp.Op != token.LEQ && cmp.Op != token.GEQ) {
		return
	}
	a, b := types.ExprString(cmp.X), types.ExprString(cmp.Y)
	for _, st := range ifs.Body.List {
		if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if l, r := types.ExprString(as.Lhs[0]), types.ExprString(as.Rhs[0]); (l == a && r == b) || (l == b && r == a) {
				extremum[as] = true
			}
		}
	}
}

// mentionsVar reports whether e refers to any of the given objects.
func mentionsVar(p *Package, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[p.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedInTail reports whether a later statement in the enclosing block
// passes the named slice to a sort or slices function.
func sortedInTail(p *Package, target string, tail []ast.Stmt) bool {
	for _, st := range tail {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
				return true
			}
			for _, a := range call.Args {
				if mentionsIdent(a, target) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return true
	})
	return found
}

// floatAccum names the float-typed target of an order-sensitive reduction
// (x += v, x -= v, x *= v, or the expanded x = x + v / x = v * x), else "".
func floatAccum(p *Package, as *ast.AssignStmt) string {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return ""
	}
	lhs := as.Lhs[0]
	t := p.Info.TypeOf(lhs)
	if t == nil {
		return ""
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return ""
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return types.ExprString(lhs)
	case token.ASSIGN:
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if ok && (bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL) {
			l := types.ExprString(lhs)
			if types.ExprString(bin.X) == l || types.ExprString(bin.Y) == l {
				return l
			}
		}
	}
	return ""
}
