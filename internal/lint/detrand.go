package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetrandAnalyzer enforces that all randomness flows from explicitly
// seeded streams. Two rules:
//
//  1. Package-level math/rand functions (rand.Intn, rand.Float64, ...)
//     draw from the process-global generator, which is shared, seeded from
//     entropy since Go 1.20, and unreproducible. They are forbidden
//     everywhere; draw from a threaded *rand.Rand instead (typically a
//     labelled simnet Engine.Rand stream).
//
//  2. rand.NewSource / rand.New(rand.NewSource(...)) with a CONSTANT seed
//     creates an "un-threaded" stream: its identity is baked into the call
//     site rather than derived from the experiment seed, so two components
//     can silently share a stream and a config's seed knob stops covering
//     that randomness. Constant-seeded sources are forbidden outside
//     internal/simnet, whose Engine.Rand is the sanctioned stream
//     constructor (it hashes engine seed + label into the source seed).
//     Threading a seed variable (config field, parameter) is fine.
var DetrandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand state and constant-seeded rand sources outside simnet",
	Run:  runDetrand,
}

// detrandGlobal lists the math/rand package-level functions that use the
// shared global generator. New, NewSource, and NewZipf construct explicit
// state and are handled by the constant-seed rule instead.
var detrandGlobal = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runDetrand(p *Package) []Finding {
	inSimnet := strings.HasSuffix(p.ImportPath, "internal/simnet")
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			// Only package selectors: rand.Intn(...) — never r.Intn(...)
			// on a threaded *rand.Rand, whose methods share these names.
			if !ok || !isPkgSelector(p, sel) {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
				return true
			}
			pos := p.Fset.Position(sel.Pos())
			if detrandGlobal[fn.Name()] {
				out = append(out, Finding{pos, "detrand",
					"rand." + fn.Name() + " uses the global math/rand generator; draw from a seeded *rand.Rand stream (e.g. simnet Engine.Rand)"})
			}
			return true
		})
		if inSimnet {
			continue // Engine.Rand is the sanctioned stream constructor.
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pkgFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" || fn.Name() != "NewSource" {
				return true
			}
			if len(call.Args) == 1 && p.Info.Types[call.Args[0]].Value != nil {
				out = append(out, Finding{p.Fset.Position(call.Pos()), "detrand",
					"rand.NewSource with a constant seed bakes stream identity into the call site; thread a seed from the experiment config (or use simnet Engine.Rand)"})
			}
			return true
		})
	}
	return out
}
