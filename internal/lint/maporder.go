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
// comm), or accumulating floats (x += v, x -= v, x *= v, x = x + v).
// Go randomizes map iteration order per run, so any of these leaks
// nondeterminism straight into event sequencing or result tables; float
// addition is not associative, so even a sum of deterministic inputs
// changes its low-order bits with the order. Integer sums stay silent:
// they really are commutative.
//
// The sorted-keys idiom stays silent: a loop that only appends to slices
// which are then passed to a sort/slices call later in the same block is
// the sanctioned way to get a deterministic order out of a map.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-sensitive side effects (append/send/float accumulation/simnet/sched/comm) without sorting",
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
	effects := collectEffects(p, rs.Body)
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
func collectEffects(p *Package, body *ast.BlockStmt) []mapEffect {
	// Map append calls to their assignment target so the sorted-keys
	// idiom can be recognized.
	appendTarget := make(map[*ast.CallExpr]string)
	ast.Inspect(body, func(n ast.Node) bool {
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
	return effects
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
