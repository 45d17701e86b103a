package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// TaintAnalyzer is the cross-function nondeterminism dataflow pass. The
// intra-function analyzers (walltime, detrand, maporder) catch a source
// *used* at its call site; this pass catches the value that escapes —
// returned from a helper, threaded through two more calls, and only then
// handed to the event heap or a metrics accumulator, where it silently
// breaks same-seed reproducibility.
//
// Sources (where nondeterminism enters):
//   - wall-clock reads: time.Now, time.Since, time.Until
//   - the global math/rand generator (rand.Intn, rand.Float64, ...)
//   - process environment: os.Getenv, os.LookupEnv, os.Environ
//   - map iteration order: the key/value variables of a `range` over a map
//
// Sinks (where nondeterminism becomes irreversible):
//   - simnet scheduling: Schedule/After/Every/RunUntil/Rand methods on a
//     type named Engine (matched structurally, so testdata
//     fakes and engine wrappers are covered) — a tainted time perturbs
//     the event heap and therefore the trace digest; a tainted Rand label
//     selects a nondeterministic stream
//   - reported metrics: any call into a package ending in internal/stats
//     (every experiment table and trace-digest figure is accumulated
//     through stats) — a tainted sample corrupts every downstream number
//
// The analysis is summary-based: each function body is summarized once
// per fixpoint round (does it return a source-derived value? do any of
// its parameters reach a sink?), and summaries compose across the call
// graph, so a taint chain may cross any number of function and package
// boundaries. Findings are reported at the call site where the tainted
// value is handed to the sink-reaching call, with the full chain —
// source position, intermediate calls, sink position — in the message.
var TaintAnalyzer = &Analyzer{
	Name:      "taint",
	Doc:       "track wall-clock/global-rand/env/map-order values across function boundaries into scheduling and metric sinks",
	RunModule: runTaint,
}

// taintSchedulers are the Engine methods whose arguments feed the event
// heap (or, for Rand, stream selection).
var taintSchedulers = map[string]bool{
	"Schedule": true, "After": true, "Every": true, "RunUntil": true, "RunUntilDone": true, "Rand": true,
	"ScheduleTo": true, "AfterTo": true, // the Handler forms of Schedule and After
}

// taintChain records one witness path from a source to the value under
// discussion: where nondeterminism entered and every call boundary it
// crossed since. Chains are first-wins: once a variable or summary is
// tainted, its witness never changes, which keeps the fixpoint monotone.
type taintChain struct {
	srcDesc string
	srcPos  token.Position
	hops    []taintHop
}

// taintHop is one crossed call boundary on a chain.
type taintHop struct {
	fn  string
	pos token.Position
}

func (c *taintChain) extend(fn string, pos token.Position) *taintChain {
	hops := make([]taintHop, len(c.hops), len(c.hops)+1)
	copy(hops, c.hops)
	return &taintChain{c.srcDesc, c.srcPos, append(hops, taintHop{fn, pos})}
}

// sinkPath is the sink-side mirror of a taintChain: from a parameter's
// entry into a function to the sink call it reaches, possibly through
// further callees.
type sinkPath struct {
	sinkDesc string
	sinkPos  token.Position
	hops     []taintHop
}

func (s *sinkPath) prepend(fn string, pos token.Position) *sinkPath {
	hops := make([]taintHop, 0, len(s.hops)+1)
	hops = append(hops, taintHop{fn, pos})
	return &sinkPath{s.sinkDesc, s.sinkPos, append(hops, s.hops...)}
}

// flow is the dataflow value for one expression or variable: the source
// chain that taints it (nil if clean) and the bitmask of enclosing-
// function parameters it may carry.
type flow struct {
	chain  *taintChain
	params uint64
}

func (f flow) empty() bool { return f.chain == nil && f.params == 0 }

func (f flow) union(g flow) flow {
	out := f
	if out.chain == nil {
		out.chain = g.chain
	}
	out.params |= g.params
	return out
}

// taintFunc is one analyzable function body plus its evolving summary.
type taintFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	name     string // qualified for chain messages, e.g. "sched.pickNode"
	paramIdx map[*types.Var]int
	// Summary, grown monotonically across fixpoint rounds:
	retChain  *taintChain       // a return value derives from an internal source
	paramRet  uint64            // param i flows to a return value
	paramSink map[int]*sinkPath // param i reaches a sink
}

func runTaint(pkgs []*Package) []Finding {
	tw := &taintWorld{
		funcs: make(map[*types.Func]*taintFunc),
	}
	// ordered mirrors the map in source order, so summary rounds and the
	// findings pass are deterministic regardless of map iteration.
	var ordered []*taintFunc
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
				tf := newTaintFunc(p, fd, obj)
				tw.funcs[obj] = tf
				ordered = append(ordered, tf)
			}
		}
	}
	// Summary fixpoint: every update is first-wins or a bitmask union, so
	// the state grows monotonically and the loop terminates.
	for changed := true; changed; {
		changed = false
		for _, tf := range ordered {
			if tw.summarize(tf) {
				changed = true
			}
		}
	}
	// Findings pass, with summaries final.
	var out []Finding
	seen := make(map[string]bool)
	for _, tf := range ordered {
		p := tf.pkg
		if strings.HasSuffix(p.ImportPath, "internal/simnet") || strings.HasSuffix(p.ImportPath, "internal/stats") {
			continue // the sink implementations themselves
		}
		for _, f := range tw.analyze(tf, true) {
			key := f.Pos.Filename + fmt.Sprint(f.Pos.Line, f.Pos.Column) + f.Message
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

type taintWorld struct {
	funcs map[*types.Func]*taintFunc
}

func newTaintFunc(p *Package, fd *ast.FuncDecl, obj *types.Func) *taintFunc {
	tf := &taintFunc{
		pkg:       p,
		decl:      fd,
		name:      qualifiedFuncName(obj),
		paramIdx:  make(map[*types.Var]int),
		paramSink: make(map[int]*sinkPath),
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					tf.paramIdx[v] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return tf
}

// qualifiedFuncName renders pkg.Func or Type.Method for chain messages.
func qualifiedFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// summarize recomputes tf's summary from its body and current callee
// summaries; reports whether anything was added.
func (tw *taintWorld) summarize(tf *taintFunc) bool {
	before := summarySignature(tf)
	tw.analyze(tf, false)
	return summarySignature(tf) != before
}

func summarySignature(tf *taintFunc) string {
	keys := make([]byte, 0, 8)
	for i := 0; i < 64; i++ {
		if tf.paramSink[i] != nil {
			keys = append(keys, byte(i))
		}
	}
	return fmt.Sprint(tf.retChain != nil, tf.paramRet, keys)
}

// analyze runs the intra-function dataflow for tf: it propagates flows
// through local variables to a fixpoint, updates the function summary
// from return statements and sink reachability, and (when report is set)
// emits findings where tainted values meet sinks.
func (tw *taintWorld) analyze(tf *taintFunc, report bool) []Finding {
	st := &taintState{
		tw:        tw,
		tf:        tf,
		vars:      make(map[*types.Var]flow),
		sanitized: sortSanitized(tf.pkg, tf.decl.Body),
	}
	// Local fixpoint: assignments inside loops can read variables whose
	// taint is only established on a later statement walk.
	for changed := true; changed; {
		changed = false
		st.changed = &changed
		ast.Inspect(tf.decl.Body, st.propagateStmt)
	}
	st.changed = nil
	// Returns → summary. Returns inside nested func literals belong to
	// the literal, not tf, so walk with literal-depth tracking.
	tw.collectReturns(tf, st)
	// Sinks: one more walk, now emitting findings and paramSink entries.
	st.report = report
	ast.Inspect(tf.decl.Body, st.checkSinks)
	return st.findings
}

type taintState struct {
	tw        *taintWorld
	tf        *taintFunc
	vars      map[*types.Var]flow
	sanitized map[*types.Var]bool
	changed   *bool
	report    bool
	findings  []Finding
}

// setVar merges a flow into a variable, first-wins for chains. Map-order
// taint is dropped when the variable is sorted somewhere in this function
// (the sanitized set is fixed before the fixpoint, keeping it monotone).
func (st *taintState) setVar(v *types.Var, f flow) {
	if v == nil {
		return
	}
	if f.chain != nil && f.chain.srcDesc == mapOrderSrc && st.sanitized[v] {
		f.chain = nil
	}
	if f.empty() {
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

func (st *taintState) lhsVar(e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := st.tf.pkg.Info.Defs[x].(*types.Var); ok {
			return v
		}
		if v, ok := st.tf.pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		// results[i] = tainted ⇒ treat the container as tainted.
		return st.lhsVar(x.X)
	case *ast.StarExpr:
		return st.lhsVar(x.X)
	}
	return nil
}

// propagateStmt is the assignment/range walker for the local fixpoint.
func (st *taintState) propagateStmt(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// Multi-value: v1, v2 := f() — the call's flow reaches every
			// lhs (coarse but safe).
			f := st.exprFlow(s.Rhs[0])
			for _, lhs := range s.Lhs {
				st.setVar(st.lhsVar(lhs), f)
			}
			return true
		}
		for i, rhs := range s.Rhs {
			if i < len(s.Lhs) {
				st.setVar(st.lhsVar(s.Lhs[i]), st.exprFlow(rhs))
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
					if v, ok := st.tf.pkg.Info.Defs[name].(*types.Var); ok {
						st.setVar(v, st.exprFlow(vs.Values[i]))
					}
				}
			}
		}
	case *ast.RangeStmt:
		t := st.tf.pkg.Info.TypeOf(s.X)
		if t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pos := st.tf.pkg.Fset.Position(s.Pos())
				mapFlow := flow{chain: &taintChain{srcDesc: "map iteration order", srcPos: pos}}
				st.setVar(st.rangeVar(s.Key), mapFlow)
				st.setVar(st.rangeVar(s.Value), mapFlow)
			} else if f := st.exprFlow(s.X); !f.empty() {
				// Ranging an ordered collection forwards its taint to the
				// element variable (indices stay clean).
				st.setVar(st.rangeVar(s.Value), f)
			}
		}
	}
	return true
}

func (st *taintState) rangeVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := st.tf.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := st.tf.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// exprFlow evaluates the dataflow value of an expression.
// mapOrderSrc is the srcDesc of the map-iteration source; it is the one
// source a sort call can sanitize.
const mapOrderSrc = "map iteration order"

// sortSanitized collects the variables the function passes to a
// sort/slices call anywhere in its body. A slice built in map order and
// then sorted by a total order is deterministic (the sorted-keys idiom
// maporder also recognizes), so map-order taint is dropped when it is
// assigned into a sanitized variable. Value-level sources (wall clock,
// global rand, env) survive sorting — ordering deterministic garbage
// does not make it clean.
func sortSanitized(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok {
						out[v] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

func (st *taintState) exprFlow(e ast.Expr) flow {
	p := st.tf.pkg
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			f := st.vars[v]
			if i, isParam := st.tf.paramIdx[v]; isParam {
				f.params |= 1 << uint(i)
			}
			return f
		}
	case *ast.CallExpr:
		return st.callFlow(x)
	case *ast.BinaryExpr:
		return st.exprFlow(x.X).union(st.exprFlow(x.Y))
	case *ast.ParenExpr:
		return st.exprFlow(x.X)
	case *ast.UnaryExpr:
		return st.exprFlow(x.X)
	case *ast.StarExpr:
		return st.exprFlow(x.X)
	case *ast.SelectorExpr:
		// Field access on a tainted struct stays tainted; package
		// selectors (pkg.Var) resolve via the Ident case through X.
		return st.exprFlow(x.X)
	case *ast.IndexExpr:
		return st.exprFlow(x.X).union(st.exprFlow(x.Index))
	case *ast.SliceExpr:
		return st.exprFlow(x.X)
	case *ast.TypeAssertExpr:
		return st.exprFlow(x.X)
	case *ast.CompositeLit:
		var f flow
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				f = f.union(st.exprFlow(kv.Value))
			} else {
				f = f.union(st.exprFlow(el))
			}
		}
		return f
	}
	return flow{}
}

// callFlow computes the flow of a call's result: source calls start a
// chain, summarized module functions compose precisely, type conversions
// and unknown callees (stdlib, interfaces, func values) forward the union
// of their operands.
func (st *taintState) callFlow(call *ast.CallExpr) flow {
	p := st.tf.pkg
	// Type conversion: float64(x), time.Duration(x), ...
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.exprFlow(call.Args[0])
		}
		return flow{}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "len", "cap", "min", "max":
				// Derived from the operands: len(tainted) is tainted.
				var f flow
				for _, a := range call.Args {
					f = f.union(st.exprFlow(a))
				}
				return f
			default: // make, new, ... produce fresh deterministic values
				return flow{}
			}
		}
	}
	fn := calleeFunc(p, call)
	if desc := sourceDesc(fn); desc != "" {
		return flow{chain: &taintChain{srcDesc: desc, srcPos: p.Fset.Position(call.Pos())}}
	}
	pos := p.Fset.Position(call.Pos())
	if fn != nil {
		if callee, ok := st.tw.funcs[fn]; ok {
			var f flow
			if callee.retChain != nil {
				f.chain = callee.retChain.extend(callee.name, pos)
			}
			if callee.paramRet != 0 {
				for i, a := range call.Args {
					if callee.paramRet&(1<<uint(i)) == 0 {
						continue
					}
					af := st.exprFlow(a)
					if f.chain == nil && af.chain != nil {
						f.chain = af.chain.extend(callee.name, pos)
					}
					f.params |= af.params
				}
			}
			return f
		}
	}
	// Unknown callee: conservatively forward operands (this is what makes
	// start.Round(...), fmt.Sprintf(tainted), strconv on tainted work).
	var f flow
	for _, a := range call.Args {
		f = f.union(st.exprFlow(a))
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && !isPkgSelector(p, sel) {
		// Method on a tainted receiver (e.g. wall.Seconds()).
		f = f.union(st.exprFlow(sel.X))
	}
	return f
}

// isPkgSelector reports whether sel is pkg.Name rather than value.Method.
func isPkgSelector(p *Package, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := p.Info.Uses[id].(*types.PkgName)
	return isPkg
}

// sourceDesc classifies a callee as a nondeterminism source. Only
// package-level functions qualify: methods on a threaded *rand.Rand
// (rng.Intn, rng.ExpFloat64, ...) are the sanctioned seeded-stream
// pattern, not the global generator, even though they live in math/rand.
func sourceDesc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand":
		if detrandGlobal[fn.Name()] {
			return "rand." + fn.Name()
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + fn.Name()
		}
	}
	return ""
}

// sinkDesc classifies a callee as a direct sink; empty string if not.
func sinkDesc(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Name() == "Engine" && taintSchedulers[fn.Name()] {
			return "Engine." + fn.Name()
		}
	}
	if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/stats") {
		return "stats." + fn.Name()
	}
	return ""
}

// collectReturns folds return statements into tf's summary, skipping
// returns that belong to nested function literals.
func (tw *taintWorld) collectReturns(tf *taintFunc, st *taintState) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case *ast.FuncLit:
			return // its returns are not tf's
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				f := st.exprFlow(res)
				if tf.retChain == nil && f.chain != nil {
					tf.retChain = f.chain
				}
				tf.paramRet |= f.params
			}
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(tf.decl.Body)
}

// checkSinks inspects every call: a tainted argument meeting a sink (or
// a sink-reaching parameter of a summarized callee) yields a finding; a
// parameter-carrying argument extends tf's own paramSink summary.
func (st *taintState) checkSinks(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	p := st.tf.pkg
	fn := calleeFunc(p, call)
	callPos := p.Fset.Position(call.Pos())
	if desc := sinkDesc(fn); desc != "" {
		for _, a := range call.Args {
			f := st.exprFlow(a)
			if f.chain != nil && st.report {
				st.emit(f.chain, &sinkPath{sinkDesc: desc, sinkPos: callPos}, callPos)
			}
			if f.params != 0 {
				for i := 0; i < 64; i++ {
					if f.params&(1<<uint(i)) != 0 && st.tf.paramSink[i] == nil {
						st.tf.paramSink[i] = &sinkPath{sinkDesc: desc, sinkPos: callPos}
					}
				}
			}
		}
		return true
	}
	if fn != nil {
		if callee, ok := st.tw.funcs[fn]; ok && len(callee.paramSink) > 0 {
			for i, a := range call.Args {
				sp := callee.paramSink[i]
				if sp == nil {
					continue
				}
				f := st.exprFlow(a)
				if f.chain != nil && st.report {
					st.emit(f.chain, sp.prepend(callee.name, callPos), callPos)
				}
				if f.params != 0 {
					ext := sp.prepend(callee.name, callPos)
					for j := 0; j < 64; j++ {
						if f.params&(1<<uint(j)) != 0 && st.tf.paramSink[j] == nil {
							st.tf.paramSink[j] = ext
						}
					}
				}
			}
		}
	}
	return true
}

// emit renders the full source→hops→sink chain into one finding at the
// call site where the tainted value is handed over.
func (st *taintState) emit(c *taintChain, sp *sinkPath, at token.Position) {
	var b strings.Builder
	fmt.Fprintf(&b, "nondeterministic value from %s (%s) reaches %s (%s)",
		c.srcDesc, shortPos(c.srcPos), sp.sinkDesc, shortPos(sp.sinkPos))
	hops := append(append([]taintHop{}, c.hops...), sp.hops...)
	if len(hops) > 0 {
		parts := make([]string, len(hops))
		for i, h := range hops {
			parts[i] = fmt.Sprintf("%s (%s)", h.fn, shortPos(h.pos))
		}
		fmt.Fprintf(&b, " via %s", strings.Join(parts, " -> "))
	}
	b.WriteString("; same-seed runs diverge — derive the value from the engine seed or virtual clock, or suppress with a reason")
	st.findings = append(st.findings, Finding{at, "taint", b.String()})
}

func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// children returns a node's immediate AST children.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
