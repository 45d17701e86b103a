// Package lint holds the project-specific static analyzers that enforce
// the simulation core's determinism contract.
//
// Every experiment in this repository assumes the discrete-event simulator
// is bit-for-bit reproducible: same seed ⇒ same event ordering ⇒ same
// utilization/slowdown/AEA numbers. A single stray wall-clock read, global
// RNG call, or order-sensitive map iteration silently corrupts every
// downstream table. The analyzers here (Analyzers; the README table is
// drift-gated against it) turn that contract into a merge gate: the test
// TestRunOnRealTree runs every one of them over the whole module and fails
// on any finding. See each analyzer's Doc for the precise rule.
//
// The driver is built from the standard library only (go/ast, go/token,
// go/types, go/importer) — no external module dependencies — so the lint
// gate can never be the thing that breaks the build.
//
// There is no suppression syntax. A site a rule flags is fixed by
// construction: host time enters only through internal/hostprof, seeds
// are threaded, and read-only tables are functions returning literals.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is a single analyzer diagnostic, printed as
// "file:line: [analyzer] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the module-qualified path (e.g. "eslurm/internal/sched").
	// Path-scoped rules (walltime's host-side exemption, detrand's simnet
	// exemption) key off this. The test harness may override it to exercise
	// those scopes.
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named determinism rule. Run sees one package at a
// time: no rule needs evidence from another package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{WalltimeAnalyzer, DetrandAnalyzer, MaporderAnalyzer, GlobalmutAnalyzer}
}

// Run executes the analyzers over the packages and returns their
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		for _, p := range pkgs {
			out = append(out, a.Run(p)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// underInternal reports whether the package lives under an internal/
// subtree, where globalmut's simulation-package rule applies.
func underInternal(importPath string) bool {
	return strings.Contains(importPath, "/internal/") || strings.HasPrefix(importPath, "internal/")
}

// hostSide reports whether the package is host side — a driver under cmd/,
// the bench/ harness, or internal/hostprof, where host time enters the
// tree under internal/ — which may read the host clock and environment to
// time and launch runs.
func hostSide(importPath string) bool {
	return strings.Contains(importPath, "/cmd/") || strings.HasPrefix(importPath, "cmd/") ||
		strings.HasSuffix(importPath, "/bench") || strings.Contains(importPath, "/bench/") ||
		inHostprof(importPath)
}

// inHostprof reports whether the package is internal/hostprof or one of
// its subpackages.
func inHostprof(importPath string) bool {
	return pathIs(importPath, "internal/hostprof") || strings.Contains(importPath, "internal/hostprof/")
}

// pathIs reports whether importPath is the module package rel, with or
// without the module prefix.
func pathIs(importPath, rel string) bool {
	return importPath == rel || strings.HasSuffix(importPath, "/"+rel)
}

// pkgFunc resolves a call expression to the package-level *types.Func it
// invokes via a package selector (pkg.Fn). It returns nil for method
// calls, locally defined functions, and anything else.
func pkgFunc(p *Package, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isPkgSelector(p, sel) {
		return nil
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	return fn
}

// isPkgSelector reports whether sel is a package-qualified name (pkg.X)
// rather than a field or method selector.
func isPkgSelector(p *Package, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := p.Info.Uses[id].(*types.PkgName)
	return isPkg
}

// calleeFunc resolves a call to its *types.Func whether it is invoked via
// a package selector, a method selector, or a plain identifier. Returns
// nil for calls through function-typed variables and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
