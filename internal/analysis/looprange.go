package analysis

import (
	"go/ast"
	"go/types"
)

// LoopRangeCapture flags goroutines launched inside a loop whose function
// literal captures the loop's iteration variables instead of receiving
// them as arguments.
//
// Since Go 1.22 each iteration gets fresh loop variables, so the classic
// stale-capture bug is gone — but the simulator's fan-outs (PE-group
// execution, parallel matmul, parallel CCS) deliberately pass iteration state as arguments so that the goroutine's
// read/write set is explicit and the race reviewer can check index
// partitioning locally. A captured loop variable hides that contract, and
// on any toolchain with `go 1.21` or older semantics in go.mod it is an
// outright data race. The analyzer enforces the explicit-argument style.
var LoopRangeCapture = &Analyzer{
	Name: "looprange-capture",
	Doc:  "goroutine launched in a loop captures the loop variable instead of taking it as an argument",
	Run:  runLoopRangeCapture,
}

func runLoopRangeCapture(p *Pass) {
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		var loopVars []map[types.Object]string // stack, one frame per enclosing loop

		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			switch n := n.(type) {
			case *ast.RangeStmt:
				frame := map[types.Object]string{}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := p.Info.Defs[id]; obj != nil {
							frame[obj] = id.Name
						}
					}
				}
				loopVars = append(loopVars, frame)
				ast.Inspect(n.Body, func(m ast.Node) bool { return inspectStep(m, walk) })
				loopVars = loopVars[:len(loopVars)-1]
				return
			case *ast.ForStmt:
				frame := map[types.Object]string{}
				if assign, ok := n.Init.(*ast.AssignStmt); ok {
					for _, lhs := range assign.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
							if obj := p.Info.Defs[id]; obj != nil {
								frame[obj] = id.Name
							}
						}
					}
				}
				loopVars = append(loopVars, frame)
				ast.Inspect(n.Body, func(m ast.Node) bool { return inspectStep(m, walk) })
				loopVars = loopVars[:len(loopVars)-1]
				return
			case *ast.GoStmt:
				if len(loopVars) > 0 {
					checkGoCapture(p, n, loopVars)
				}
				// Keep walking: the goroutine body may itself contain loops
				// launching further goroutines.
				ast.Inspect(n.Call, func(m ast.Node) bool { return inspectStep(m, walk) })
				return
			}
		}
		ast.Inspect(file, func(n ast.Node) bool { return inspectStep(n, walk) })
	}
}

// inspectStep routes loop/go nodes to walk (which manages the loop-var
// stack) and lets ast.Inspect recurse through everything else.
func inspectStep(n ast.Node, walk func(ast.Node)) bool {
	switch n.(type) {
	case *ast.RangeStmt, *ast.ForStmt, *ast.GoStmt:
		walk(n)
		return false
	}
	return true
}

// checkGoCapture reports loop variables referenced inside the function
// literal(s) of a go statement. References inside the call's argument
// list are the sanctioned pattern (go func(i int){...}(i)) and are not
// reported.
func checkGoCapture(p *Pass, g *ast.GoStmt, loopVars []map[types.Object]string) {
	var bodies []*ast.FuncLit
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		bodies = append(bodies, lit)
	}
	for _, arg := range g.Call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			bodies = append(bodies, lit)
		}
	}
	for _, lit := range bodies {
		reported := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || reported[obj] {
				return true
			}
			for _, frame := range loopVars {
				if name, ok := frame[obj]; ok {
					reported[obj] = true
					p.Reportf(id.Pos(),
						"goroutine captures loop variable %q; pass it as an argument so the goroutine's read/write set is explicit", name)
				}
			}
			return true
		})
	}
}
