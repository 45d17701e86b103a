package lint

import (
	"go/ast"
	"go/types"
)

// WalltimeAnalyzer forbids reading or waiting on the host clock, and
// reading the process environment, outside the host-side packages: the
// drivers under cmd/, the bench/ harness, and internal/hostprof (with its
// profile subpackage), where host time enters the tree under internal/.
// Simulated components live in
// virtual time: the current instant is simnet.Engine.Now and delays are
// Engine.After/Every. A single time.Now() inside the simulation perturbs
// event ordering between runs and breaks seed-reproducibility; an
// os.Getenv makes the same seed mean different runs on different hosts.
// Both are caught where they enter, so no such value can reach the event
// heap through any chain of calls.
//
// So that hostprof's exemption is no side door, a reference to any
// function of hostprof or its subpackages is itself a finding outside the
// host side, except in internal/experiment: its suite runner times each
// Spec.Run with hostprof.Stopwatch to fill Result.Wall, which no table
// reads.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "forbid host clock or environment reads (time.Now/Since/Until/Sleep/After/Tick/timers, os.Getenv/LookupEnv/Environ) outside cmd/, bench/ and internal/hostprof, and hostprof calls outside those and internal/experiment",
	Run:  runWalltime,
}

// walltimeBanned lists, per package, the functions that read or wait on
// the host clock or read the process environment.
var walltimeBanned = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true},
	"os": {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// walltimeHint is the fix, per banned package.
var walltimeHint = map[string]string{
	"time": "read Engine.Now and schedule with Engine.After/Every, in virtual time",
	"os":   "thread the setting through the experiment config",
}

func runWalltime(p *Package) []Finding {
	if hostSide(p.ImportPath) {
		return nil
	}
	runner := pathIs(p.ImportPath, "internal/experiment")
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !isPkgSelector(p, sel) {
				return true // methods such as time.Time.After read no clock
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			path := fn.Pkg().Path()
			switch {
			case walltimeBanned[path][fn.Name()]:
				out = append(out, Finding{p.Fset.Position(sel.Pos()), "walltime", fn.Pkg().Name() + "." + fn.Name() +
					" reads the host clock or environment inside the simulation; " + walltimeHint[path]})
			case inHostprof(path) && !runner:
				out = append(out, Finding{p.Fset.Position(sel.Pos()), "walltime", fn.Pkg().Name() + "." + fn.Name() +
					" is host time inside the simulation; only cmd/, bench/ and the experiment suite runner may call it"})
			}
			return true
		})
	}
	return out
}
