// Package hotpath exercises the hotpath analyzer: allocation sites,
// closures, interface boxing and calls to unannotated functions inside
// //pimdl:hotpath bodies, including cross-package calls resolved
// through the fact store, and calls to body-less (assembly) leaves.
package hotpath

import (
	"fmt"

	"repro/internal/analysis/testdata/src/hotpathdep"
)

type job struct {
	dst []float32
	n   int
}

// kernel is the well-behaved hot path: shape guards panic (exempt),
// writes go into caller storage, and every callee is annotated.
//
//pimdl:hotpath
func kernel(j *job, lo, hi int) {
	if hi > j.n {
		panic(fmt.Sprintf("hotpath: chunk end %d beyond %d", hi, j.n))
	}
	for i := lo; i < hi; i++ {
		j.dst[i] *= 2
	}
	hotpathdep.Annotated(j.dst[lo:hi], 1)
	hotpathdep.Leaf(j.dst)
	helper(j.dst)
}

// helper is annotated so kernel may call it.
//
//pimdl:hotpath
func helper(dst []float32) {
	clear(dst)
}

// allocating breaks every rule the analyzer checks.
//
//pimdl:hotpath
func allocating(j *job, vs []float32) []float32 {
	buf := make([]float32, j.n) // want: make in hotpath
	buf = append(buf, 1)        // want: append in hotpath
	tmp := []float32{1, 2}      // want: slice/map literal
	helper(tmp)
	go helper(buf)              // want: go statement
	f := func() { helper(buf) } // want: closure in hotpath
	f()
	fmt.Println()                   // want: allocates by design
	vs = hotpathdep.Unannotated(vs) // want: not annotated
	hotpathdep.BareLeaf(vs)         // want: not annotated
	sink = j.n                      // want: boxes
	box(j.n)                        // want: boxes
	box(j)
	return vs
}

// unannotated is off the hot path: nothing here is checked.
func unannotated(n int) []float32 {
	out := make([]float32, n)
	fmt.Println(len(out))
	return out
}

var sink any

// box is annotated so that calls to it only test argument boxing, not
// the unannotated-callee rule.
//
//pimdl:hotpath
func box(v any) {}
