package lint

import (
	"go/ast"
	"go/types"
)

// MaprangeAnalyzer forbids ranging over a map. Go randomizes map
// iteration order on every run, so whether a loop body is sensitive to it
// (an append, a send, a float sum, a key that leaves the loop, the first
// of two tied extrema) is a judgement a rule can get wrong; a ban cannot.
// A map is visited through mapkeys.Sorted(m), whose package is the one
// place allowed to range over one, or kept as a slice when its keys are
// dense IDs.
//
// The bench/ harness is outside the ban: its loops are map-to-map stores
// whose result does not depend on the order.
var MaprangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "forbid range over a map (including a map-typed type parameter) outside internal/mapkeys and bench/; range over mapkeys.Sorted(m) or a slice",
	Run:  runMaprange,
}

func runMaprange(p *Package) []Finding {
	if under(p.ImportPath, "internal/mapkeys") || under(p.ImportPath, "bench") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMap(p.Info.TypeOf(rs.X)) {
				out = append(out, Finding{p.Fset.Position(rs.Pos()), "maprange",
					"range over a map visits its entries in a per-run random order; range over mapkeys.Sorted(m), or keep a slice"})
			}
			return true
		})
	}
	return out
}

// isMap reports whether t is a map, or a type parameter constrained to
// maps (whose range is a map range too).
func isMap(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.TypeParam:
		iface := t.Constraint().Underlying().(*types.Interface)
		for i := range iface.NumEmbeddeds() {
			if isMap(iface.EmbeddedType(i)) {
				return true
			}
		}
		return false
	case *types.Union:
		return t.Len() > 0 && isMap(t.Term(0).Type())
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
