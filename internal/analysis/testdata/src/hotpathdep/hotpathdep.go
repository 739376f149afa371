// Package hotpathdep provides annotated and unannotated callees for
// the cross-package hotpath fixture: the hotpath package calls into
// this one, and the analyzer resolves the annotations through the
// shared fact store filled while this (dependency) package was
// analyzed.
package hotpathdep

// Annotated is a hot-path-safe helper.
//
//pimdl:hotpath
func Annotated(dst []float32, v float32) {
	for i := range dst {
		dst[i] += v
	}
}

// Unannotated allocates freely; hot-path callers must not use it.
func Unannotated(dst []float32) []float32 {
	return append(dst, 0)
}

// Leaf is an annotated declaration without a body, as an assembly
// kernel is declared: hot-path callers may use it.
//
//pimdl:hotpath
func Leaf(dst []float32)

// BareLeaf has no body and no annotation; hot-path callers must not
// use it.
func BareLeaf(dst []float32)
