package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathDirective marks a function whose steady state must not
// allocate. It appears on its own line in the function's doc comment.
const hotpathDirective = "pimdl:hotpath"

// hotpathDeniedStdlib lists standard-library packages whose functions
// allocate by design (formatting, string building, sorting, reflection)
// and therefore have no place in an annotated hot path. Everything else
// in the standard library (sync, atomic, math, runtime) is allowed.
var hotpathDeniedStdlib = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "sort": true,
	"errors": true, "regexp": true, "reflect": true, "log": true,
	"os": true, "encoding/json": true,
}

// Hotpath statically guards the zero-allocation claims behind the
// BENCH_*.json numbers: a function annotated
//
//	//pimdl:hotpath
//
// in its doc comment may not allocate in steady state. Inside annotated
// functions the analyzer flags make/new/append, closures, slice and map
// literals, go statements, calls into allocating stdlib packages (fmt
// et al.), implicit interface boxing of non-pointer values, and — the
// cross-package part — calls to module functions that are not
// themselves annotated, resolved through the shared fact store so a
// lutnn kernel calling parallel.ForCtx checks against the annotation
// in the parallel package. Panic arguments are exempt: a panicking
// shape check leaves steady state, so its fmt.Sprintf is free. Arena
// grow-to-high-water sites document themselves with a suppression. An
// annotated declaration without a body (an assembly leaf) has nothing
// to check and counts as annotated: its author vouches for it.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "allocation (or call to an unannotated function) in a //pimdl:hotpath function",
	Run:  runHotpath,
}

func runHotpath(p *Pass) {
	// Phase 1: record this package's annotations before checking any
	// body, so intra-package calls resolve exactly like cross-package
	// ones (whose packages ran earlier in dependency order).
	var annotated []*ast.FuncDecl
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasHotpathDirective(fd) {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				p.Facts.Hotpath[fn] = true
				if fd.Body != nil {
					annotated = append(annotated, fd)
				}
			}
		}
	}
	for _, fd := range annotated {
		checkHotpathBody(p, fd)
	}
}

func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotpathDirective) {
			return true
		}
	}
	return false
}

func checkHotpathBody(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement in hotpath %s; goroutine launch allocates", name)
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "closure in hotpath %s allocates; use a top-level function with a pooled context (parallel.ForCtx style)", name)
			return false // the literal's body is not on the hot path
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(n.Pos(), "slice/map literal in hotpath %s allocates; draw scratch from an arena", name)
				}
			}
		case *ast.CallExpr:
			if isPanicCall(p, n) {
				// A panicking guard exits steady state: everything in
				// its argument tree (fmt.Sprintf included) is exempt.
				return false
			}
			checkHotpathCall(p, fd, n)
		case *ast.AssignStmt:
			checkBoxingAssign(p, fd, n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

func isPanicCall(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic" && isBuiltin(p, id)
}

func checkHotpathCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	name := fd.Name.Name
	// Builtins that allocate.
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(p, id) {
		switch id.Name {
		case "make", "new":
			p.Reportf(call.Pos(), "%s in hotpath %s allocates; preallocate or draw from an arena", id.Name, name)
		case "append":
			p.Reportf(call.Pos(), "append in hotpath %s may grow its backing array; write into preallocated storage", name)
		}
		return
	}
	// Conversions are not calls.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if callee := calleeFunc(p, call); callee != nil && callee.Pkg() != nil {
		path := callee.Pkg().Path()
		switch {
		case samePathRoot(path, p.PkgPath):
			if !p.Facts.Hotpath[callee] {
				p.Reportf(call.Pos(),
					"hotpath %s calls %s.%s, which is not annotated //pimdl:hotpath; annotate it or move the call off the hot path",
					name, shortPkg(path), callee.Name())
			}
		case hotpathDeniedStdlib[path]:
			p.Reportf(call.Pos(),
				"hotpath %s calls %s.%s, which allocates by design", name, path, callee.Name())
		}
	}
	checkBoxingArgs(p, fd, call)
}

// checkBoxingArgs flags concrete non-pointer values passed to
// interface-typed parameters: the conversion boxes the value on the
// heap. Pointers, channels, maps, funcs and existing interface values
// store directly in the interface word; constants fold into read-only
// data.
func checkBoxingArgs(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed as-is, no per-element boxing
			}
			paramT = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		reportBoxing(p, fd, arg, "argument")
	}
}

// checkBoxingAssign flags assignments of concrete non-pointer values to
// interface-typed destinations.
func checkBoxingAssign(p *Pass, fd *ast.FuncDecl, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		ltv, ok := p.Info.Types[lhs]
		if !ok || ltv.Type == nil || !types.IsInterface(ltv.Type) {
			continue
		}
		reportBoxing(p, fd, assign.Rhs[i], "assignment")
	}
}

func reportBoxing(p *Pass, fd *ast.FuncDecl, e ast.Expr, how string) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil { // constants fold statically
		return
	}
	t := tv.Type
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	if types.IsInterface(t) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	p.Reportf(e.Pos(),
		"interface %s boxes a %s in hotpath %s; pass a pointer (pooled context) instead", how, t, fd.Name.Name)
}

// samePathRoot reports whether two import paths share their first
// segment — i.e. both belong to this module (stdlib paths never share
// the module's root segment).
func samePathRoot(a, b string) bool {
	return pathRoot(a) == pathRoot(b)
}

func pathRoot(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
