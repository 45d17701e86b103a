package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GlobalmutAnalyzer is the global-state audit. A mutable package-level
// variable in a simulation package outlives the run: it leaks state into
// the next run when one process runs several in sequence (the benchrunner
// suite, a test binary), and every workpool worker shares it when runs
// execute side by side. Even one only read today can be aliased and
// written tomorrow, and nothing in the type system will complain.
//
// The rule flags package-level non-blank vars in internal/ packages whose
// underlying type is mutable (pointer, map, slice, array, chan, or
// struct), plus any var of another type (basic, interface, func) that the
// module observably writes after initialization. Interface-typed
// sentinel errors (var ErrX = errors.New(...)) and function/basic
// constants-in-spirit therefore stay silent unless something assigns to
// them.
//
// Writes are detected module-wide: direct assignment (including to an
// element, field, or pointee rooted at the var), ++/--, taking the
// address, and calling a pointer-receiver method on the var (which is how
// sync.Map.Store and atomic.Int32.Add mutate). The first observed write
// site is included in the message so the audit is actionable.
//
// internal/lint and internal/testutil are exempt: linter tables and test
// scaffolding are never linked into a simulation binary, so they cannot
// carry state between runs. Every remaining finding must be fixed or
// carry a reasoned suppression, and DESIGN.md's suppression ledger lists
// each one.
var GlobalmutAnalyzer = &Analyzer{
	Name:      "globalmut",
	Doc:       "flag mutable package-level state (non-const vars of pointer/map/slice/struct/chan type, or written vars of any type) in internal/ simulation packages",
	RunModule: runGlobalmut,
}

// globalmutExempt lists import-path suffixes outside the audit's scope.
var globalmutExempt = []string{"internal/lint", "internal/testutil"}

func globalmutScoped(path string) bool {
	if !underInternal(path) {
		return false
	}
	for _, suffix := range globalmutExempt {
		if strings.HasSuffix(path, suffix) || strings.Contains(path, suffix+"/") {
			return false
		}
	}
	return true
}

// globalWrite records the first mutation site observed for a var.
type globalWrite struct {
	pos  token.Position
	kind string
}

func runGlobalmut(pkgs []*Package) []Finding {
	writes := collectGlobalWrites(pkgs)
	var out []Finding
	for _, p := range pkgs {
		if !globalmutScoped(p.ImportPath) {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						v, ok := p.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						w := writes[v]
						mutable := mutableUnderlying(v.Type())
						if mutable == "" && w == nil {
							continue
						}
						msg := "package-level var " + name.Name + " (" + types.TypeString(v.Type(), shortQualifier) + ") is mutable shared state"
						if w != nil {
							msg += ": written via " + w.kind + " at " + shortPos(w.pos)
						} else {
							msg += ": no writes observed, but " + mutable + " state can be aliased and mutated by any future caller"
						}
						msg += "; it outlives the run, leaking state into the next run in the process and across workpool workers — make it a constant, derive it per call, or thread it through the engine/config and suppress with a reason if it must stay"
						out = append(out, Finding{p.Fset.Position(name.Pos()), "globalmut", msg})
					}
				}
			}
		}
	}
	return out
}

// mutableUnderlying names the mutable type class of t, or "" if values of
// t are immutable (basic, string, interface, func, named combinations of
// those).
func mutableUnderlying(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Pointer:
		return "pointer"
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	case *types.Array:
		return "array"
	case *types.Chan:
		return "channel"
	case *types.Struct:
		return "struct"
	}
	return ""
}

// collectGlobalWrites scans every loaded package for mutations of
// package-level vars, keeping the first site per var in walk order.
func collectGlobalWrites(pkgs []*Package) map[*types.Var]*globalWrite {
	writes := make(map[*types.Var]*globalWrite)
	record := func(p *Package, e ast.Expr, pos token.Pos, kind string) {
		v := pkgVarRoot(p, e)
		if v == nil {
			return
		}
		if _, seen := writes[v]; !seen {
			writes[v] = &globalWrite{p.Fset.Position(pos), kind}
		}
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.FuncDecl:
					// Writes only count inside function bodies: the
					// declaration initializer itself is not a mutation.
					return true
				case *ast.AssignStmt:
					if !insideFunc(p, s.Pos()) {
						return true
					}
					for _, lhs := range s.Lhs {
						record(p, lhs, s.Pos(), "assignment")
					}
				case *ast.IncDecStmt:
					record(p, s.X, s.Pos(), "increment")
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						record(p, s.X, s.Pos(), "address-of")
					}
				case *ast.CallExpr:
					sel, ok := s.Fun.(*ast.SelectorExpr)
					if !ok || isPkgSelector(p, sel) {
						return true
					}
					fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
					if !ok {
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() == nil {
						return true
					}
					if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
						record(p, sel.X, s.Pos(), "pointer-receiver call to "+fn.Name())
					}
				}
				return true
			})
		}
	}
	return writes
}

// insideFunc reports whether pos falls inside some function body of p.
// Package-level initializer expressions sit outside every body.
func insideFunc(p *Package, pos token.Pos) bool {
	for _, file := range p.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil &&
				pos >= fd.Body.Pos() && pos <= fd.Body.End() {
				return true
			}
		}
	}
	return false
}

// pkgVarRoot resolves an expression to the package-level var at its root
// (x, x[i], x.f, *x, (x)), or nil.
func pkgVarRoot(p *Package, e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			v, ok = p.Info.Defs[x].(*types.Var)
		}
		if ok && isPkgLevelVar(v) && !v.Embedded() && v.Pkg() != nil {
			return v
		}
	case *ast.SelectorExpr:
		if isPkgSelector(p, x) {
			if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			return nil
		}
		// Only field selection on a var keeps the root; method values and
		// interface fields do not mutate the var's storage... but field
		// writes through a struct-typed global do, so keep walking.
		return pkgVarRoot(p, x.X)
	case *ast.IndexExpr:
		return pkgVarRoot(p, x.X)
	case *ast.StarExpr:
		return pkgVarRoot(p, x.X)
	case *ast.ParenExpr:
		return pkgVarRoot(p, x.X)
	}
	return nil
}

// shortQualifier renders cross-package type names as pkgname.Type.
func shortQualifier(other *types.Package) string { return other.Name() }

// isPkgLevelVar reports whether v is declared at package scope (whose
// parent is the universe scope).
func isPkgLevelVar(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}
