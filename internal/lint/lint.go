// Package lint implements eslurmlint, a project-specific static-analysis
// pass that enforces the simulation core's determinism contract.
//
// Every experiment in this repository assumes the discrete-event simulator
// is bit-for-bit reproducible: same seed ⇒ same event ordering ⇒ same
// utilization/slowdown/AEA numbers. A single stray wall-clock read, global
// RNG call, or order-sensitive map iteration silently corrupts every
// downstream table. The analyzers here (run `eslurmlint -list` for the
// current set — the README table is drift-gated against it) turn that
// contract into a merge gate; see each analyzer's Doc for the precise
// rule.
//
// The driver is built from the standard library only (go/ast, go/token,
// go/types, go/importer) — no external module dependencies — so the lint
// gate can never be the thing that breaks the build.
//
// Findings can be suppressed at a specific site with
//
//	//eslurmlint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a suppression must explain why the site is deterministic so
// reviewers can audit the exceptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
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
	// Path-scoped rules (walltime's cmd/ and bench/ exemption, detrand's simnet
	// exemption) key off this. The test harness may override it to exercise
	// those scopes.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named determinism rule. Exactly one of Run and
// RunModule is set (or neither, for pipeline-implemented analyzers like
// staleignore): Run sees one package at a time; RunModule sees every
// loaded package at once, for rules whose evidence spans packages
// (module-wide writes to globals).
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Finding
	RunModule func(pkgs []*Package) []Finding
}

// Analyzers returns the full eslurmlint rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer, DetrandAnalyzer, MaporderAnalyzer,
		GlobalmutAnalyzer, StaleignoreAnalyzer,
	}
}

// AnalyzerNames returns the names of every registered analyzer.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the analyzers over the packages, applies
// //eslurmlint:ignore suppressions, and returns the surviving findings
// sorted by position. Malformed suppression comments are themselves
// reported as findings of the pseudo-analyzer "suppress". After every
// analyzer has run and suppression filtering has marked which directives
// were load-bearing, the staleignore pass reports the rest.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// A directive may name any registered analyzer without being
	// malformed, even when this invocation enables a subset.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		enabled[a.Name] = true
	}

	sups := make(suppressionSet)
	var out, raw []Finding
	for _, p := range pkgs {
		ps, malformed := collectSuppressions(p, known)
		for k, e := range ps {
			sups[k] = e
		}
		out = append(out, malformed...)
		for _, a := range analyzers {
			if a.Run != nil {
				raw = append(raw, a.Run(p)...)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			raw = append(raw, a.RunModule(pkgs)...)
		}
	}
	for _, f := range raw {
		if !sups.covers(f) {
			out = append(out, f)
		}
	}
	if enabled["staleignore"] {
		for _, k := range sups.unused(enabled) {
			f := Finding{sups[k].pos, "staleignore",
				"//eslurmlint:ignore " + k.analyzer + " suppresses nothing; the finding it excused is gone — delete the directive (or fix the drift that moved it off the site)"}
			if !sups.covers(f) {
				out = append(out, f)
			}
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

// hostSide reports whether the package is a host-side driver — under cmd/
// or the bench/ harness — which may read the host clock and environment to
// time and launch runs.
func hostSide(importPath string) bool {
	return strings.Contains(importPath, "/cmd/") || strings.HasPrefix(importPath, "cmd/") ||
		strings.HasSuffix(importPath, "/bench") || strings.Contains(importPath, "/bench/")
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

// shortPos renders a position as base-file:line for finding messages.
func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
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
