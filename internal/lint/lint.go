// Package lint holds the project-specific static analyzers that enforce
// the simulation core's determinism contract.
//
// Every experiment in this repository assumes the discrete-event simulator
// is bit-for-bit reproducible: same seed ⇒ same event ordering ⇒ same
// utilization/slowdown/AEA numbers. A single stray wall-clock read, global
// RNG call, or map iteration silently corrupts every downstream table. The
// analyzers here (Analyzers; the README table is drift-gated against it)
// turn that contract into a merge gate: the test TestRunOnRealTree runs
// every one of them over the whole module and fails on any finding.
//
// The rules are bans, not judgements. bannedcall is one table of calls
// that bring host time, the environment or a global generator into a
// package (each row names the packages allowed to make them); maprange
// forbids ranging over a map anywhere but internal/mapkeys, whose Sorted
// is the one way to visit a map; globalmut forbids package-level state
// in the simulation packages. None of them asks whether a particular use
// happens to be harmless, so none can be fooled by one that is not.
//
// The driver is built from the standard library only (go/ast, go/build,
// go/types, go/importer) — no external module dependencies — so the lint
// gate can never be the thing that breaks the build.
//
// There is no suppression syntax. A site a rule flags is fixed by
// construction: host time enters only through internal/hostprof, seeds
// are threaded, maps are visited in sorted-key order, and read-only
// tables are functions returning literals.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
	// Path-scoped rules (the ban table's allowed directories, maprange's
	// helper package) key off this. The test harness may override it to
	// exercise those scopes.
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
	return []*Analyzer{BannedcallAnalyzer, MaprangeAnalyzer, GlobalmutAnalyzer}
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
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Message, b.Message))
	})
	return out
}

// under reports whether the package at importPath is the module-relative
// directory dir or lies below it: "eslurm/cmd/chaossoak" is under "cmd".
// The module path is one element, so the rest of the path is
// module-relative.
func under(importPath, dir string) bool {
	_, rel, _ := strings.Cut(importPath, "/")
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}
