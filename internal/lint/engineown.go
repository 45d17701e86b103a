package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EngineownAnalyzer is the engine-ownership escape analysis. The kernel's
// determinism contract is per-engine and single-threaded: every piece of
// mutable simulation state — the event heap, pooled events, memoized RNG
// streams, the metrics registry, the tracer, and every subsystem struct
// holding a *simnet.Engine — is owned by exactly one Engine and therefore
// by exactly one goroutine. Any engine-owned value that leaks to another
// goroutine (captured in a go-spawned closure, sent over a channel, or
// parked in a package-level variable) is a data race waiting for a second
// simulation to run beside the first.
//
// Like taint, the pass is summary-based and interprocedural: ownership
// enters at any expression whose type is engine-bound (the structural
// Engine type itself, or any named type transitively holding one — see
// engineBound), propagates through locals, method calls on owned
// receivers, and summarized module functions, and is reported where it
// escapes, with the full owner → hops → escape chain in the message.
// Values of basic underlying type (seeds, counts, durations, labels)
// never carry ownership: they are snapshots, not aliases.
//
// Escapes:
//   - goroutines: an engine-owned argument to a go'd call, an owned
//     variable captured by a go'd closure, or an owned receiver of a go'd
//     method call
//   - channel sends: ch <- owned (channels exist to cross goroutines)
//   - package-level variables: storing an owned value into module-global
//     state shares it with every engine in the process
//
// Unknown callees (stdlib, interface methods, func values) do NOT forward
// ownership through their arguments: ownership is an aliasing property,
// and a helper that returns an alias of its argument almost always
// returns the same engine-bound type, which the type rule catches anyway;
// forwarding through fmt.Sprintf or json.Marshal would flag harmless
// copies. This is the precision/soundness trade documented in DESIGN.md's
// ownership contract.
var EngineownAnalyzer = &Analyzer{
	Name:      "engineown",
	Doc:       "track engine-owned values (the engine, derived RNG/metrics/tracer state, engine-holding structs) across functions and flag escapes to goroutines, channels, or package-level variables",
	RunModule: runEngineown,
}

// ownChain is the ownership witness: where the value's engine affinity
// was established and every call boundary crossed since. First-wins, like
// taintChain, so the fixpoint stays monotone.
type ownChain struct {
	rootDesc string
	rootPos  token.Position
	hops     []taintHop
}

func (c *ownChain) extend(fn string, pos token.Position) *ownChain {
	hops := make([]taintHop, len(c.hops), len(c.hops)+1)
	copy(hops, c.hops)
	return &ownChain{c.rootDesc, c.rootPos, append(hops, taintHop{fn, pos})}
}

// escapePath mirrors sinkPath: from a parameter's entry into a function
// to the escape it reaches, possibly through further callees.
type escapePath struct {
	kind string // "a goroutine", "a channel send", ...
	pos  token.Position
	hops []taintHop
}

func (s *escapePath) prepend(fn string, pos token.Position) *escapePath {
	hops := make([]taintHop, 0, len(s.hops)+1)
	hops = append(hops, taintHop{fn, pos})
	return &escapePath{s.kind, s.pos, append(hops, s.hops...)}
}

// ownFlow is the dataflow value of one expression: the ownership chain
// (nil if engine-free) and the mask of enclosing-function parameters
// whose ownership may reach it.
type ownFlow struct {
	chain  *ownChain
	params uint64
}

func (f ownFlow) empty() bool { return f.chain == nil && f.params == 0 }

func (f ownFlow) union(g ownFlow) ownFlow {
	out := f
	if out.chain == nil {
		out.chain = g.chain
	}
	out.params |= g.params
	return out
}

// ownFunc is one analyzable function plus its evolving summary.
type ownFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	name     string
	paramIdx map[*types.Var]int
	// Summary, grown monotonically across fixpoint rounds:
	retChain    *ownChain           // a return value is engine-owned independent of params
	paramRet    uint64              // param i's ownership flows to a return value
	paramEscape map[int]*escapePath // param i reaches an escape
}

// ownWorld holds the module-wide analysis state: per-function summaries
// and the engine-bound type set.
type ownWorld struct {
	funcs   map[*types.Func]*ownFunc
	ordered []*ownFunc
	// bound memoizes engine affinity per named type.
	bound map[*types.Named]bool
}

func runEngineown(pkgs []*Package) []Finding {
	return newOwnWorld(pkgs).escapes(pkgs)
}

func newOwnWorld(pkgs []*Package) *ownWorld {
	ow := &ownWorld{
		funcs: make(map[*types.Func]*ownFunc),
		bound: make(map[*types.Named]bool),
	}
	ow.computeBound(pkgs)
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				of := &ownFunc{
					pkg:         p,
					decl:        fd,
					name:        qualifiedFuncName(obj),
					paramIdx:    make(map[*types.Var]int),
					paramEscape: make(map[int]*escapePath),
				}
				i := 0
				if fd.Type.Params != nil {
					for _, field := range fd.Type.Params.List {
						for _, name := range field.Names {
							if v, ok := p.Info.Defs[name].(*types.Var); ok {
								of.paramIdx[v] = i
							}
							i++
						}
						if len(field.Names) == 0 {
							i++
						}
					}
				}
				ow.funcs[obj] = of
				ow.ordered = append(ow.ordered, of)
			}
		}
	}
	// Summary fixpoint: every update is first-wins or a bitmask union.
	for changed := true; changed; {
		changed = false
		for _, of := range ow.ordered {
			if ow.summarize(of) {
				changed = true
			}
		}
	}
	return ow
}

// escapes runs the findings pass with summaries final, deduplicated and
// restricted to internal/ packages (cmd binaries run on host goroutines
// by design; the ownership contract binds the simulation packages).
func (ow *ownWorld) escapes(pkgs []*Package) []Finding {
	var out []Finding
	seen := make(map[string]bool)
	for _, of := range ow.ordered {
		if !underInternal(of.pkg.ImportPath) {
			continue
		}
		for _, f := range ow.analyze(of, true) {
			key := f.Pos.Filename + fmt.Sprint(f.Pos.Line, f.Pos.Column) + f.Message
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	// Package-level vars initialized with engine-bound values escape by
	// construction (no function context needed: the type says it all).
	for _, p := range pkgs {
		if !underInternal(p.ImportPath) {
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
						v, ok := p.Info.Defs[name].(*types.Var)
						if !ok || name.Name == "_" {
							continue
						}
						if desc := ow.boundDesc(v.Type(), p); desc != "" {
							pos := p.Fset.Position(name.Pos())
							out = append(out, Finding{pos, "engineown",
								"package-level var " + name.Name + " holds " + desc + ": module-global engine state is shared by every engine in the process and becomes cross-shard state under the sharded kernel — construct engines per run and thread them explicitly, or suppress with a reason"})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}

// computeBound seeds the engine-bound type set: the structural Engine
// type itself plus every named type transitively reaching one through
// struct fields (directly, or via pointer/slice/array/map/chan of one).
func (ow *ownWorld) computeBound(pkgs []*Package) {
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				ow.namedBound(named, make(map[*types.Named]bool))
			}
		}
	}
}

// namedBound resolves (and memoizes) engine affinity for one named type.
// Cycles are broken by the visiting set: a type on the current resolution
// path contributes nothing new (if it is bound, another path proves it).
func (ow *ownWorld) namedBound(n *types.Named, visiting map[*types.Named]bool) bool {
	if b, ok := ow.bound[n]; ok {
		return b
	}
	if visiting[n] {
		return false
	}
	if n.Obj().Name() == "Engine" {
		ow.bound[n] = true
		return true
	}
	visiting[n] = true
	defer delete(visiting, n)
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		ow.bound[n] = false
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if inner := ow.boundElem(f.Type(), visiting); inner != nil {
			ow.bound[n] = true
			return true
		}
	}
	ow.bound[n] = false
	return false
}

// boundElem unwraps containers down to a named type and reports it if
// engine-bound; nil otherwise. Interfaces and func types never carry
// affinity at the type level.
func (ow *ownWorld) boundElem(t types.Type, visiting map[*types.Named]bool) *types.Named {
	switch u := t.(type) {
	case *types.Named:
		if ow.namedBound(u, visiting) {
			return u
		}
		return nil
	case *types.Pointer:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Slice:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Array:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Map:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Chan:
		return ow.boundElem(u.Elem(), visiting)
	}
	return nil
}

// boundDesc renders the bound-type description for messages, or "".
func (ow *ownWorld) boundDesc(t types.Type, p *Package) string {
	if n := ow.boundElem(t, make(map[*types.Named]bool)); n != nil {
		return "engine-bound " + types.TypeString(t, shortQualifier)
	}
	return ""
}

// shortQualifier renders cross-package type names as pkgname.Type.
func shortQualifier(other *types.Package) string { return other.Name() }

// summarize recomputes of's summary; reports whether anything was added.
func (ow *ownWorld) summarize(of *ownFunc) bool {
	before := ownSummarySignature(of)
	ow.analyze(of, false)
	return ownSummarySignature(of) != before
}

func ownSummarySignature(of *ownFunc) string {
	keys := make([]byte, 0, 8)
	for i := 0; i < 64; i++ {
		if of.paramEscape[i] != nil {
			keys = append(keys, byte(i))
		}
	}
	return fmt.Sprint(of.retChain != nil, of.paramRet, keys)
}

// analyze runs the intra-function ownership dataflow for of: propagate
// flows through locals to a fixpoint, fold returns into the summary, then
// walk for escapes (emitting findings when report is set).
func (ow *ownWorld) analyze(of *ownFunc, report bool) []Finding {
	st := &ownState{ow: ow, of: of, vars: make(map[*types.Var]ownFlow)}
	for changed := true; changed; {
		changed = false
		st.changed = &changed
		ast.Inspect(of.decl.Body, st.propagateStmt)
	}
	st.changed = nil
	ow.collectOwnReturns(of, st)
	st.report = report
	ast.Inspect(of.decl.Body, st.checkEscapes)
	return st.findings
}

type ownState struct {
	ow       *ownWorld
	of       *ownFunc
	vars     map[*types.Var]ownFlow
	changed  *bool
	report   bool
	findings []Finding
}

func (st *ownState) setVar(v *types.Var, f ownFlow) {
	if v == nil || f.empty() {
		return
	}
	cur := st.vars[v]
	merged := cur.union(f)
	if merged != cur {
		st.vars[v] = merged
		if st.changed != nil {
			*st.changed = true
		}
	}
}

func (st *ownState) lhsVar(e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := st.of.pkg.Info.Defs[x].(*types.Var); ok {
			return v
		}
		if v, ok := st.of.pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		return st.lhsVar(x.X)
	case *ast.StarExpr:
		return st.lhsVar(x.X)
	case *ast.SelectorExpr:
		// v.field = owned ⇒ the holder v now carries the ownership.
		if !isPkgSelector(st.of.pkg, x) {
			return st.lhsVar(x.X)
		}
	}
	return nil
}

func (st *ownState) propagateStmt(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			f := st.exprOwn(s.Rhs[0])
			for _, lhs := range s.Lhs {
				st.setVar(st.lhsVar(lhs), f)
			}
			return true
		}
		for i, rhs := range s.Rhs {
			if i < len(s.Lhs) {
				st.setVar(st.lhsVar(s.Lhs[i]), st.exprOwn(rhs))
			}
		}
	case *ast.GenDecl:
		for _, spec := range s.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if v, ok := st.of.pkg.Info.Defs[name].(*types.Var); ok {
						st.setVar(v, st.exprOwn(vs.Values[i]))
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging a derived-owned collection forwards ownership to the
		// element variable. (Collections of engine-bound element type are
		// caught by the type rule at every use, with no flow needed.)
		if f := st.exprOwn(s.X); !f.empty() {
			if id, ok := s.Value.(*ast.Ident); ok {
				if v, ok := st.of.pkg.Info.Defs[id].(*types.Var); ok {
					st.setVar(v, f)
				} else if v, ok := st.of.pkg.Info.Uses[id].(*types.Var); ok {
					st.setVar(v, f)
				}
			}
		}
	}
	return true
}

// exprOwn evaluates the ownership flow of an expression. Values of basic
// underlying type never carry ownership: e.Seed(), e.Now(), len(...) are
// snapshots of engine state, not aliases to it.
func (st *ownState) exprOwn(e ast.Expr) ownFlow {
	p := st.of.pkg
	t := p.Info.TypeOf(e)
	if t != nil {
		if _, basic := t.Underlying().(*types.Basic); basic {
			return ownFlow{}
		}
	}
	f := st.exprOwnInner(e)
	if f.chain == nil && t != nil {
		if n := st.ow.boundElem(t, make(map[*types.Named]bool)); n != nil {
			f.chain = &ownChain{
				rootDesc: types.TypeString(t, shortQualifier) + " value",
				rootPos:  p.Fset.Position(e.Pos()),
			}
		}
	}
	return f
}

func (st *ownState) exprOwnInner(e ast.Expr) ownFlow {
	p := st.of.pkg
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			f := st.vars[v]
			if i, isParam := st.of.paramIdx[v]; isParam {
				f.params |= 1 << uint(i)
			}
			return f
		}
	case *ast.CallExpr:
		return st.callOwn(x)
	case *ast.ParenExpr:
		return st.exprOwnInner(x.X)
	case *ast.UnaryExpr:
		return st.exprOwn(x.X)
	case *ast.StarExpr:
		return st.exprOwn(x.X)
	case *ast.SelectorExpr:
		if !isPkgSelector(p, x) {
			return st.exprOwn(x.X)
		}
	case *ast.IndexExpr:
		return st.exprOwn(x.X)
	case *ast.SliceExpr:
		return st.exprOwn(x.X)
	case *ast.TypeAssertExpr:
		return st.exprOwn(x.X)
	case *ast.BinaryExpr:
		return st.exprOwn(x.X).union(st.exprOwn(x.Y))
	case *ast.CompositeLit:
		var f ownFlow
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				f = f.union(st.exprOwn(kv.Value))
			} else {
				f = f.union(st.exprOwn(el))
			}
		}
		return f
	}
	return ownFlow{}
}

// callOwn computes ownership of a call's result. Ownership transfers only
// through aliasing channels: type conversions, the append builtin, method
// calls on owned receivers (e.Rand, e.Metrics, chains off them), and
// summarized module functions. Unknown callees drop it — see the analyzer
// doc for why.
func (st *ownState) callOwn(call *ast.CallExpr) ownFlow {
	p := st.of.pkg
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.exprOwn(call.Args[0])
		}
		return ownFlow{}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var f ownFlow
				for _, a := range call.Args {
					f = f.union(st.exprOwn(a))
				}
				return f
			}
			return ownFlow{}
		}
	}
	pos := p.Fset.Position(call.Pos())
	fn := calleeFunc(p, call)
	if fn != nil {
		if callee, ok := st.ow.funcs[fn]; ok {
			var f ownFlow
			if callee.retChain != nil {
				f.chain = callee.retChain.extend(callee.name, pos)
			}
			if callee.paramRet != 0 {
				for i, a := range call.Args {
					if callee.paramRet&(1<<uint(i)) == 0 {
						continue
					}
					af := st.exprOwn(a)
					if f.chain == nil && af.chain != nil {
						f.chain = af.chain.extend(callee.name, pos)
					}
					f.params |= af.params
				}
			}
			if f.empty() {
				f = st.recvDerived(call, fn, pos)
			}
			return f
		}
	}
	return st.recvDerived(call, fn, pos)
}

// recvDerived handles the method-on-owned-receiver rule: the result of
// calling any method on an engine-owned value is engine-owned (it hands
// out a piece of the engine: e.Rand(label), e.Metrics(), their chains).
func (st *ownState) recvDerived(call *ast.CallExpr, fn *types.Func, pos token.Position) ownFlow {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || isPkgSelector(st.of.pkg, sel) {
		return ownFlow{}
	}
	f := st.exprOwn(sel.X)
	if f.empty() {
		return ownFlow{}
	}
	name := sel.Sel.Name
	if fn != nil {
		name = qualifiedFuncName(fn)
	}
	if f.chain != nil {
		f.chain = f.chain.extend(name, pos)
	}
	return f
}

// collectOwnReturns folds return statements into of's summary, skipping
// returns belonging to nested function literals.
func (ow *ownWorld) collectOwnReturns(of *ownFunc, st *ownState) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				// Returning an owned value is not an escape (the caller
				// receives it on the same goroutine), but the summary lets
				// call sites continue the chain.
				f := st.exprOwn(res)
				if of.retChain == nil && f.chain != nil {
					of.retChain = f.chain
				}
				of.paramRet |= f.params
			}
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(of.decl.Body)
}

// checkEscapes walks for the three escape shapes plus calls into
// summarized escape-reaching functions.
func (st *ownState) checkEscapes(n ast.Node) bool {
	p := st.of.pkg
	switch s := n.(type) {
	case *ast.GoStmt:
		st.goEscape(s)
	case *ast.SendStmt:
		pos := p.Fset.Position(s.Pos())
		st.escapeValue(s.Value, "a channel send", pos, nil)
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			gv := st.globalTarget(lhs)
			if gv == nil {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(s.Rhs) == 1:
				rhs = s.Rhs[0]
			case i < len(s.Rhs):
				rhs = s.Rhs[i]
			}
			if rhs == nil {
				continue
			}
			pos := p.Fset.Position(s.Pos())
			st.escapeValue(rhs, "a store into package-level var "+gv.Name(), pos, nil)
		}
	case *ast.CallExpr:
		pos := p.Fset.Position(s.Pos())
		// A method call on a package-level var (collectors.Store(id, c),
		// registry.Add(e)) parks its owned arguments in module-global
		// state just as surely as a direct assignment would.
		if sel, ok := s.Fun.(*ast.SelectorExpr); ok && !isPkgSelector(p, sel) {
			if gv := st.globalTarget(sel.X); gv != nil {
				for _, a := range s.Args {
					st.escapeValue(a, "a call on package-level var "+gv.Name(), pos, nil)
				}
			}
		}
		fn := calleeFunc(p, s)
		if fn == nil {
			return true
		}
		callee, ok := st.ow.funcs[fn]
		if !ok || len(callee.paramEscape) == 0 {
			return true
		}
		for i, a := range s.Args {
			ep := callee.paramEscape[i]
			if ep == nil {
				continue
			}
			st.escapeValue(a, ep.kind, ep.pos, ep.prepend(callee.name, pos).hops)
		}
	}
	return true
}

// escapeValue reports (or summarizes) one value meeting one escape; kind
// is the human description of the escape.
func (st *ownState) escapeValue(e ast.Expr, kind string, escPos token.Position, hops []taintHop) {
	f := st.exprOwn(e)
	if f.empty() {
		return
	}
	at := st.of.pkg.Fset.Position(e.Pos())
	if f.chain != nil && st.report {
		st.emit(f.chain, kind, escPos, hops, at)
	}
	if f.params != 0 {
		for i := 0; i < 64; i++ {
			if f.params&(1<<uint(i)) != 0 && st.of.paramEscape[i] == nil {
				st.of.paramEscape[i] = &escapePath{kind: kind, pos: escPos, hops: hops}
			}
		}
	}
}

// goEscape reports owned values handed to a go statement: arguments,
// captured variables of a go'd closure, and the receiver of a go'd
// method call.
func (st *ownState) goEscape(g *ast.GoStmt) {
	p := st.of.pkg
	pos := p.Fset.Position(g.Pos())
	for _, a := range g.Call.Args {
		st.escapeValue(a, "a goroutine (argument to the go'd call)", pos, nil)
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		seen := make(map[*types.Var]bool)
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok || seen[v] {
				return true
			}
			seen[v] = true
			if v.Pos() >= fun.Pos() && v.Pos() < fun.End() {
				return true // declared inside the literal
			}
			st.escapeValue(id, "a goroutine (captured by the go'd closure)", pos, nil)
			return true
		})
	case *ast.SelectorExpr:
		if !isPkgSelector(p, fun) {
			st.escapeValue(fun.X, "a goroutine (receiver of the go'd method call)", pos, nil)
		}
	}
}

// emit renders the full owner → hops → escape chain into one finding.
func (st *ownState) emit(c *ownChain, kind string, escPos token.Position, extraHops []taintHop, at token.Position) {
	var b strings.Builder
	fmt.Fprintf(&b, "engine-owned %s (%s) escapes to %s (%s)",
		c.rootDesc, shortPos(c.rootPos), kind, shortPos(escPos))
	hops := append(append([]taintHop{}, c.hops...), extraHops...)
	if len(hops) > 0 {
		parts := make([]string, len(hops))
		for i, h := range hops {
			parts[i] = fmt.Sprintf("%s (%s)", h.fn, shortPos(h.pos))
		}
		fmt.Fprintf(&b, " via %s", strings.Join(parts, " -> "))
	}
	b.WriteString("; the sharded kernel requires all state reachable from an Engine to stay owned by exactly one goroutine — keep the value engine-local, or suppress with a reason")
	st.findings = append(st.findings, Finding{at, "engineown", b.String()})
}

// globalTarget resolves an assignment target to the package-level var it
// (or its element/field/pointee) denotes; nil for locals and params.
func (st *ownState) globalTarget(e ast.Expr) *types.Var {
	p := st.of.pkg
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			v, ok = p.Info.Defs[x].(*types.Var)
		}
		if ok && isPkgLevelVar(v) {
			return v
		}
	case *ast.SelectorExpr:
		if isPkgSelector(p, x) {
			if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			return nil
		}
		return st.globalTarget(x.X)
	case *ast.IndexExpr:
		return st.globalTarget(x.X)
	case *ast.StarExpr:
		return st.globalTarget(x.X)
	case *ast.ParenExpr:
		return st.globalTarget(x.X)
	}
	return nil
}

// isPkgLevelVar reports whether v is declared at package scope (whose
// parent is the universe scope).
func isPkgLevelVar(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}
