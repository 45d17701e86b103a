package lint

// flow.go is the shared plumbing for the flow-sensitive analyzers
// (spanleak, timerleak, drainpath) built on internal/lint/cfg:
// body discovery, parent maps for use classification, and the generic
// open/closed path scan whose witness traces become the "path:" block in
// finding messages. Everything here is deterministic: bodies are
// discovered in file/source order and the cfg solver's block order fixes
// every first-wins trace choice.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"eslurm/internal/lint/cfg"
)

// funcBody is one analyzable function body: a declaration or a function
// literal (literals are opaque to their enclosing body's CFG, so each is
// analyzed as its own intra-procedural unit).
type funcBody struct {
	p    *Package
	name string // qualified for messages, e.g. "Pool.Drain" or "send.func"
	ftyp *ast.FuncType
	body *ast.BlockStmt
	decl *ast.FuncDecl // nil for literals
}

// flowBodies returns every function body in the package in source order:
// each declaration, then each function literal it nests (which get their
// own CFGs — a literal's statements never appear in the enclosing graph).
func flowBodies(p *Package) []funcBody {
	var out []funcBody
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				name = qualifiedFuncName(obj)
			}
			out = append(out, funcBody{p: p, name: name, ftyp: fd.Type, body: fd.Body, decl: fd})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{p: p, name: name + ".func", ftyp: lit.Type, body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// buildCFG builds the body's graph once per analysis.
func (fb funcBody) buildCFG() *cfg.Graph {
	return cfg.New(fb.name, fb.body)
}

// parentMap records each node's syntactic parent inside root, for
// climbing from an identifier use to the construct that consumes it.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// insideFuncLit reports whether n sits inside a function literal that is
// itself inside root's body — i.e. whether a variable use at n is a
// closure capture from root's perspective.
func insideFuncLit(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for c := parents[n]; c != nil; c = parents[c] {
		if _, ok := c.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of fn's (pointer-stripped) receiver
// named type, or "" for non-methods — the structural matching idiom the
// taint pass uses, so testdata fakes and wrappers match.
func recvTypeName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// useVar resolves an identifier to the *types.Var it reads, nil if not a
// variable use.
func useVar(p *Package, id *ast.Ident) *types.Var {
	v, _ := p.Info.Uses[id].(*types.Var)
	return v
}

// isComparison reports whether op is a comparison operator — a tracked
// handle appearing only as a comparison operand is being inspected, not
// consumed.
func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// openSet is the path state-set for one tracked origin: pre (origin not
// yet executed), open (resource live, with a first-wins witness trace),
// and closed (settled: ended, cancelled, escaped, or nil-safe). The
// three coexist because different paths through the same block can be in
// different states.
type openSet struct {
	pre    bool
	open   *cfg.Trace
	closed bool
}

// scanOpenPath runs the forward open/closed analysis for one origin
// node inside g and returns the witness trace of a path that reaches
// the exit still open, or nil if every path settles the resource.
//
//   - consumes(n) reports whether block node n settles the tracked value
//     (terminates it, escapes it, or rebinds it);
//   - refine(e) optionally reports whether crossing edge e establishes a
//     regime where leaking is impossible (nil-receiver guards); may be
//     nil.
func scanOpenPath(fset *token.FileSet, g *cfg.Graph, origin ast.Node, originDesc string,
	consumes func(n ast.Node) bool, refine func(e *cfg.Edge) bool) *cfg.Trace {
	p := cfg.Problem[openSet]{
		Boundary: openSet{pre: true},
		Transfer: func(b *cfg.Block, s openSet) openSet {
			out := s
			for _, n := range b.Nodes {
				if n == origin {
					if out.pre {
						out.pre = false
						if out.open == nil {
							out.open = (*cfg.Trace)(nil).Extend(originDesc)
						}
					}
					continue
				}
				if out.open != nil && consumes(n) {
					out.open = nil
					out.closed = true
				}
			}
			return out
		},
		EdgeTransfer: func(e *cfg.Edge, s openSet) openSet {
			out := s
			if out.open == nil {
				return out
			}
			if refine != nil && refine(e) {
				out.open = nil
				out.closed = true
				return out
			}
			out.open = out.open.ExtendEdge(fset, e)
			return out
		},
		Join: func(dst, src openSet) (openSet, bool) {
			changed := false
			if src.pre && !dst.pre {
				dst.pre = true
				changed = true
			}
			if src.closed && !dst.closed {
				dst.closed = true
				changed = true
			}
			if src.open != nil && dst.open == nil {
				dst.open = src.open
				changed = true
			}
			return dst, changed
		},
	}
	res := cfg.Forward(g, p)
	exit := g.Exit.Index
	if !res.Reached[exit] {
		return nil
	}
	return res.In[exit].open
}

// shortPosAt is shortPos over a FileSet position.
func shortPosAt(fset *token.FileSet, pos token.Pos) string {
	return shortPos(fset.Position(pos))
}

// spanLabelArg extracts a string-literal first argument ("span name")
// for friendlier messages; "" if the label is not a literal.
func spanLabelArg(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s
		}
	}
	return ""
}
