package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// BannedcallAnalyzer reports every reference to a function that brings
// nondeterminism into a package, from one table (bans): each row names a
// package, the functions of it that are banned, the module directories
// where a call is allowed, and the fix.
//
// Host time and the environment enter only on the host side: the drivers
// under cmd/, the bench/ harness, and internal/hostprof (with its profile
// subpackage). A simulated component reads Engine.Now and schedules with
// Engine.After/Every; one time.Now() inside the simulation perturbs event
// order between runs, and an os.Getenv makes the same seed mean different
// runs on different hosts. So that hostprof is no side door, its own
// functions are banned outside the host side too, except in
// internal/experiment, whose suite runner fills Result.Wall from
// hostprof.Stopwatch (a field no table reads).
//
// The package-level draws of math/rand and math/rand/v2 use a process-wide
// generator seeded from entropy: they are banned everywhere. A source
// built from constants alone (math/rand's NewSource, math/rand/v2's
// NewPCG) is banned outside internal/simnet, whose Engine.Rand is the one
// stream constructor (it hashes engine seed and label into the source
// seed); a threaded seed (a config field, a parameter) is fine.
//
// The maps package's Keys, Values and All iterate a map in Go's random
// order, as a range over it does; like that range (see maprange) they
// are banned outside internal/mapkeys, whose Sorted is the way to visit
// a map.
//
// Every banned value is caught where it enters, so none can reach the
// event heap through any chain of calls.
var BannedcallAnalyzer = &Analyzer{
	Name: "bannedcall",
	Doc:  "forbid host clock and environment reads outside cmd/, bench/ and internal/hostprof, hostprof calls outside those and internal/experiment, global math/rand and math/rand/v2 draws everywhere, constant-seeded rand.NewSource and rand/v2 NewPCG outside internal/simnet, and maps.Keys/Values/All outside internal/mapkeys",
	Run:  runBannedcall,
}

// ban is one row of the table.
type ban struct {
	pkg   string   // import path of the package
	funcs []string // banned functions; nil bans all of them
	allow []string // module-relative directories where the call is fine
	// constSeed limits the row to calls whose arguments are all constants.
	constSeed bool
	msg       string // follows "pkg.Func " in the finding
}

const (
	hostMsg      = "reads the host clock or environment inside the simulation; "
	hostprofMsg  = "is host time inside the simulation; only cmd/, bench/ and the experiment suite runner may call it"
	globalFix    = " generator; draw from a seeded *rand.Rand stream (e.g. simnet Engine.Rand)"
	constSeedMsg = "with a constant seed bakes stream identity into the call site; thread a seed from the experiment config (or use simnet Engine.Rand)"
)

var (
	hostSide   = []string{"cmd", "bench", "internal/hostprof"}
	hostRunner = []string{"cmd", "bench", "internal/hostprof", "internal/experiment"}
)

var bans = []ban{
	{pkg: "time", funcs: []string{"Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc"},
		allow: hostSide, msg: hostMsg + "read Engine.Now and schedule with Engine.After/Every, in virtual time"},
	{pkg: "os", funcs: []string{"Getenv", "LookupEnv", "Environ"},
		allow: hostSide, msg: hostMsg + "thread the setting through the experiment config"},
	{pkg: "eslurm/internal/hostprof", allow: hostRunner, msg: hostprofMsg},
	{pkg: "eslurm/internal/hostprof/profile", allow: hostRunner, msg: hostprofMsg},
	{pkg: "math/rand", funcs: []string{"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "Uint32", "Uint64",
		"Float32", "Float64", "NormFloat64", "ExpFloat64", "Perm", "Shuffle", "Seed", "Read"},
		msg: "uses the global math/rand" + globalFix},
	{pkg: "math/rand/v2", funcs: []string{"Int", "IntN", "Int32", "Int32N", "Int64", "Int64N", "Uint", "UintN",
		"Uint32", "Uint32N", "Uint64", "Uint64N", "N", "Float32", "Float64", "NormFloat64", "ExpFloat64", "Perm", "Shuffle"},
		msg: "uses the global math/rand/v2" + globalFix},
	{pkg: "math/rand", funcs: []string{"NewSource"}, allow: []string{"internal/simnet"}, constSeed: true, msg: constSeedMsg},
	{pkg: "math/rand/v2", funcs: []string{"NewPCG"}, allow: []string{"internal/simnet"}, constSeed: true, msg: constSeedMsg},
	{pkg: "maps", funcs: []string{"Keys", "Values", "All"}, allow: []string{"internal/mapkeys"},
		msg: "iterates a map in random order; visit its keys through mapkeys.Sorted"},
}

func runBannedcall(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		seeded := make(map[ast.Expr]bool) // the callee of each call whose arguments are all constants
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 &&
				!slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return p.Info.Types[a].Value == nil }) {
				seeded[call.Fun] = true
			}
			// Only package selectors: rand.Intn, never r.Intn on a threaded
			// *rand.Rand or t.After on a time.Time.
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || !isPkgName(p.Info.Uses[id]) {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			for _, b := range bans {
				if b.pkg != fn.Pkg().Path() || b.funcs != nil && !slices.Contains(b.funcs, fn.Name()) ||
					b.constSeed && !seeded[sel] || slices.ContainsFunc(b.allow, func(dir string) bool { return under(p.ImportPath, dir) }) {
					continue
				}
				out = append(out, Finding{p.Fset.Position(sel.Pos()), "bannedcall", fn.Pkg().Name() + "." + fn.Name() + " " + b.msg})
			}
			return true
		})
	}
	return out
}

func isPkgName(obj types.Object) bool {
	_, ok := obj.(*types.PkgName)
	return ok
}
