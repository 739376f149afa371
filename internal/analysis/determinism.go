package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismPackages lists the import-path suffixes of the packages
// whose outputs must be reproducible from their seeds alone: the
// simulator core, the kernels, clustering, the serving/fault simulators
// and everything the golden and determinism tests
// (kmeans/determinism_test.go, the fault-plan goldens, the fastpath
// bit-exactness oracles) pin. The benchmark command and the metrics
// registry are deliberately absent: wall-clock reads are the benchmark's
// job, and the metrics shard picker uses the runtime's per-thread
// generator by design. Tests may append fixture paths.
var DeterminismPackages = []string{
	"internal/pim",
	"internal/shard",
	"internal/lutnn",
	"internal/kmeans",
	"internal/tensor",
	"internal/engine",
	"internal/serving",
	"internal/parallel",
	"internal/nn",
	"internal/autotuner",
	"internal/workload",
	"internal/mapping",
	"internal/energy",
	"internal/experiments",
	"internal/autograd",
	"internal/baseline",
	"internal/core",
}

// Determinism flags the three ways nondeterminism leaks into the
// simulator and kernel packages:
//
//   - wall-clock reads (time.Now / time.Since): simulated time comes
//     from the timing model, never from the host clock;
//   - the global math/rand source (rand.Intn, rand.Float64, ...): every
//     random draw threads a seeded *rand.Rand so fault plans, arrival
//     processes and k-means restarts replay exactly;
//   - map iteration feeding a float accumulator or an appended result
//     slice: Go randomizes map order, so a `for k := range m` that sums
//     floats (order-dependent rounding) or builds an output slice
//     (order-dependent contents) produces run-to-run diffs. Sort the
//     keys first, or accumulate order-independent integers;
//   - random draws inside a map range: a call on a *rand.Rand declared
//     outside the loop, or one that hands it to a callee, consumes the
//     seeded stream in map order, so each key gets a different draw on
//     every run.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "wall-clock read, global math/rand, or map-order-dependent accumulation or draw in a deterministic package",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	applies := false
	for _, suffix := range DeterminismPackages {
		if strings.HasSuffix(p.PkgPath, suffix) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkNondeterministicCall(p, call)
			}
			return true
		})
		// Map-range checks need the enclosing function: collecting keys
		// into a slice that is sorted before use is the sanctioned
		// de-randomizing idiom and must not be flagged.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok {
					checkMapRange(p, fd, rng)
				}
				return true
			})
		}
	}
}

// checkNondeterministicCall flags time.Now/time.Since and calls to
// math/rand package-level functions that draw from the global source.
// Constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8) are the
// sanctioned seeded path and pass.
func checkNondeterministicCall(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkg.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			p.Reportf(call.Pos(),
				"time.%s in a deterministic package; simulated time comes from the timing model, not the host clock", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		switch sel.Sel.Name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		p.Reportf(call.Pos(),
			"rand.%s draws from the global math/rand source; thread a seeded *rand.Rand so the run replays from its seed", sel.Sel.Name)
	}
}

// checkMapRange flags map-range bodies that accumulate floats or append
// to a slice declared outside the loop — the two shapes where map order
// changes the observable result. Writes keyed by the ranged key
// (out[k] = ...) are order-independent and pass, as does collecting
// keys into a slice that the enclosing function later sorts.
func checkMapRange(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := p.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Objects declared inside the loop body (or the range clause itself)
	// are order-local; only accumulation into outer state is flagged.
	local := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	outerVar := func(e ast.Expr) (types.Object, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := p.Info.Uses[id]
		if obj == nil || local[obj] {
			return nil, false
		}
		return obj, true
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		operands := call.Args
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			operands = append([]ast.Expr{sel.X}, operands...)
		}
		for _, e := range operands {
			if id, ok := e.(*ast.Ident); ok && local[p.Info.Uses[id]] {
				continue // a generator seeded per key
			}
			if isRandPtr(p.Info.TypeOf(e)) {
				p.Reportf(call.Pos(),
					"draw from %q inside a map range consumes the random stream in map order; range over sorted keys instead", types.ExprString(e))
				break
			}
		}
		return true
	})
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			obj, isOuter := outerVar(lhs)
			if !isOuter {
				continue
			}
			// x = append(x, ...): result slice built in map order.
			if i < len(assign.Rhs) {
				if call, ok := assign.Rhs[i].(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(p, id) {
						if !sortedInFunc(p, fd, obj) {
							p.Reportf(assign.Pos(),
								"append to %q inside a map range builds a map-order-dependent slice; sort it (or range over sorted keys) before use", obj.Name())
						}
						continue
					}
				}
			}
			// x += expr (or other op-assign) on a float: rounding depends
			// on the order of addition.
			if assign.Tok.IsOperator() && assign.Tok.String() != "=" && assign.Tok.String() != ":=" {
				if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
					p.Reportf(assign.Pos(),
						"float accumulation into %q inside a map range is map-order-dependent; range over sorted keys instead", obj.Name())
				}
			}
		}
		return true
	})
}

// sortedInFunc reports whether the function passes obj to a sort or
// slices call — the collect-keys-then-sort idiom that restores a
// deterministic order before the slice is used.
func sortedInFunc(p *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pkg.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if aid, ok := m.(*ast.Ident); ok && p.Info.Uses[aid] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// isRandPtr reports whether t is *rand.Rand from math/rand or math/rand/v2.
func isRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Rand" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}
