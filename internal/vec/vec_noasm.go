//go:build !amd64 || purego

package vec

// useAVX2 is always false without the assembly; the leaves below are
// never reached and forward to the Go fallbacks.
var useAVX2 = false

//pimdl:hotpath
func init4F32AVX2(dst, s0, s1, s2, s3 []float32) { init4F32Go(dst, s0, s1, s2, s3) }

//pimdl:hotpath
func add4F32AVX2(dst, s0, s1, s2, s3 []float32) { add4F32Go(dst, s0, s1, s2, s3) }

//pimdl:hotpath
func addF32AVX2(dst, src []float32) { addF32Go(dst, src) }

//pimdl:hotpath
func add4I8AVX2(dst []int32, s0, s1, s2, s3 []int8) { add4I8Go(dst, s0, s1, s2, s3) }

//pimdl:hotpath
func addI8AVX2(dst []int32, src []int8) { addI8Go(dst, src) }

//pimdl:hotpath
func addScaled4F32AVX2(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	addScaled4F32Go(c, a0, a1, a2, a3, b0, b1, b2, b3)
}
