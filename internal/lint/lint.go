// Package lint implements eslurmlint, a project-specific static-analysis
// pass that enforces the simulation core's determinism contract.
//
// Every experiment in this repository assumes the discrete-event simulator
// is bit-for-bit reproducible: same seed ⇒ same event ordering ⇒ same
// utilization/slowdown/AEA numbers. A single stray wall-clock read, global
// RNG call, or order-sensitive map iteration silently corrupts every
// downstream table. The analyzers here (run `eslurmlint -list` for the
// current set — the README table is drift-gated against it) turn that
// contract — and the kernel hot path's allocation budget and the
// documentation contract (pkgdoc) — into a merge gate; see each
// analyzer's Doc for the precise rule.
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
// mandatory: a suppression must explain why the site is deterministic (or
// why the dropped error is safe) so reviewers can audit the exceptions.
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
	// Path-scoped rules (walltime's internal/-only scope, detrand's simnet
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
// staleignore): Run sees one package at a time and may be cached and
// parallelized per package; RunModule sees every loaded package at once,
// for rules whose evidence spans packages (taint chains, randlabel's
// cross-package stream collisions).
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Finding
	RunModule func(pkgs []*Package) []Finding
}

// Analyzers returns the full eslurmlint rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer, DetrandAnalyzer, MaporderAnalyzer, ErrdropAnalyzer,
		GosimAnalyzer, TaintAnalyzer, FloatsumAnalyzer,
		RandlabelAnalyzer, EngineownAnalyzer, GlobalmutAnalyzer,
		StaleignoreAnalyzer, PkgdocAnalyzer,
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
// reported as findings of the pseudo-analyzer "suppress". Run is the
// serial reference pipeline; the CLI drives RunParallel, which must
// produce byte-identical output.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	raw := make([]*pkgResult, len(pkgs))
	for i, p := range pkgs {
		raw[i] = runPerPackage(p, analyzers)
	}
	return assemble(pkgs, analyzers, raw)
}

// pkgResult is the complete per-package unit of work: the single-package
// analyzer findings that survived this package's own suppressions, any
// malformed-directive findings, and the state of every directive —
// including whether it was load-bearing. Carrying the used flags in the
// unit (and therefore in the result cache's payload) is what keeps
// staleignore correct on warm-cache runs: a replayed package must replay
// which directives it consumed, not just which findings survived.
type pkgResult struct {
	findings   []Finding
	malformed  []Finding
	directives []directiveState
}

// directiveState is the serializable form of one suppression directive.
type directiveState struct {
	key  suppression
	pos  token.Position
	used bool
}

// knownAnalyzers is the directive-validation set: every registered
// analyzer plus any extra analyzers enabled for this invocation. A
// directive may name any registered analyzer without being "malformed",
// even when the invocation enables a subset.
func knownAnalyzers(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// runPerPackage executes the single-package analyzers over one package
// and applies the package's own suppressions. This is the unit of work
// the parallel driver distributes and the result cache stores.
func runPerPackage(p *Package, analyzers []*Analyzer) *pkgResult {
	sups, malformed := collectSuppressions(p, knownAnalyzers(analyzers))
	res := &pkgResult{malformed: malformed}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, f := range a.Run(p) {
			if !sups.covers(f) {
				res.findings = append(res.findings, f)
			}
		}
	}
	res.directives = flattenSuppressions(sups)
	return res
}

// flattenSuppressions renders a suppressionSet as a sorted slice, so
// per-package results (and cache payloads) are deterministic.
func flattenSuppressions(sups suppressionSet) []directiveState {
	out := make([]directiveState, 0, len(sups))
	for k, e := range sups {
		out = append(out, directiveState{key: k, pos: e.pos, used: e.used})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.analyzer < b.analyzer
	})
	return out
}

// assemble completes the pipeline after per-package analysis: it rebuilds
// the module-wide suppression set from the per-package directive states
// (used flags included — they may have come from the cache), runs the
// module-wide analyzers live, filters them against the set, runs the
// staleignore pass over directives that silenced nothing anywhere, and
// sorts. Module analyzers always run live: their evidence spans packages,
// so a per-package cache key cannot witness them.
func assemble(pkgs []*Package, analyzers []*Analyzer, raw []*pkgResult) []Finding {
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = true
	}

	sups := make(suppressionSet)
	var out []Finding
	for _, res := range raw {
		for _, d := range res.directives {
			if e := sups[d.key]; e != nil {
				e.used = e.used || d.used
			} else {
				sups[d.key] = &supEntry{pos: d.pos, used: d.used}
			}
		}
		out = append(out, res.malformed...)
		out = append(out, res.findings...)
	}
	var pending []Finding
	for _, a := range analyzers {
		if a.RunModule != nil {
			pending = append(pending, a.RunModule(pkgs)...)
		}
	}
	for _, f := range pending {
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
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// underInternal reports whether the package lives under an internal/
// subtree, where the virtual-clock-only rule applies.
func underInternal(importPath string) bool {
	return strings.Contains(importPath, "/internal/") || strings.HasPrefix(importPath, "internal/")
}

// pkgFunc resolves a call expression to the package-level *types.Func it
// invokes via a package selector (pkg.Fn). It returns nil for method
// calls, locally defined functions, and anything else.
func pkgFunc(p *Package, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := p.Info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	return fn
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
