package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalmutAnalyzer is the global-state audit. A package-level variable
// in a simulation package outlives the run: it leaks state into the next
// run when one process runs several in sequence (the benchrunner suite, a
// test binary), and every workpool worker shares it when runs execute side
// by side. Even one only read today can be aliased or written tomorrow,
// and nothing in the type system will complain.
//
// The rule flags every non-blank package-level var in internal/ packages
// except an error initialized at its declaration (var ErrX =
// errors.New(...)), the sentinel idiom. It checks one package at a time:
// whether anything writes the var does not matter, so there is no
// module-wide write analysis to run.
//
// internal/lint and internal/testutil are exempt: linter tables and test
// scaffolding are never linked into a simulation binary, so they cannot
// carry state between runs. Every remaining finding must be fixed: a
// default becomes a constant, a function value a function, and a
// read-only table a function returning a literal (a fresh value per call,
// which no run can share with another).
var GlobalmutAnalyzer = &Analyzer{
	Name: "globalmut",
	Doc:  "flag package-level vars (all but initialized error sentinels) in internal/ simulation packages",
	Run:  runGlobalmut,
}

// globalmutScoped reports whether the package is in the audit's scope.
func globalmutScoped(path string) bool {
	return under(path, "internal") && !under(path, "internal/lint") && !under(path, "internal/testutil")
}

func runGlobalmut(p *Package) []Finding {
	if !globalmutScoped(p.ImportPath) {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	for _, file := range p.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if name.Name == "_" || !ok {
						continue
					}
					if len(vs.Values) > 0 && types.Identical(v.Type(), errType) {
						continue // an error sentinel
					}
					msg := "package-level var " + name.Name + " (" + types.TypeString(v.Type(), shortQualifier) + ") is mutable shared state" +
						"; it outlives the run, leaking state into the next run in the process and across workpool workers — make it a constant, derive it per call (a function returning a literal), or thread it through the engine/config"
					out = append(out, Finding{p.Fset.Position(name.Pos()), "globalmut", msg})
				}
			}
		}
	}
	return out
}

// shortQualifier renders cross-package type names as pkgname.Type.
func shortQualifier(other *types.Package) string { return other.Name() }
