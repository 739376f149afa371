// Package vec holds the element-wise leaf kernels of the host hot path:
// the LUT gather's accumulates (FP32 and INT8) and the four-product
// update of the training matmul. Every leaf gives each output element
// its own accumulator and adds into it in one fixed order, the order of
// the Go loops below, so a vector lane per output is bit-identical to
// the scalar loop by construction (DESIGN.md §6):
//
//   - the accumulator is the first operand of every add, as in the Go
//     statement acc = acc + x (the AVX2 code issues VADDPS x, acc, acc);
//   - a product is rounded to float32 before it is added: a separate
//     multiply, then an add, never a fused multiply-add. The Go
//     fallbacks write float32(x*y), which keeps every GOARCH from fusing;
//   - Init4F32 starts its sum from an explicit +0, so an all-−0 sum is
//     +0, exactly as accumulating into a cleared buffer would give.
//
// On amd64 with AVX2 (probed once with CPUID and XGETBV, which also
// checks that the OS saves YMM state) the leaves run in assembly,
// 32 lanes per iteration with 16-, 8- and 1-wide tails. The Go
// fallbacks serve every other host, and every build tagged purego.
package vec

// Init4F32 writes dst[k] = (((0+s0[k])+s1[k])+s2[k])+s3[k]. The leading
// 0+ is not redundant: the serial references start from a zeroed
// output, and IEEE 754 has 0+(−0) = +0, so folding it away could flip
// the sign of an all-negative-zero sum. Every s must hold at least
// len(dst) elements.
//
//pimdl:hotpath
func Init4F32(dst, s0, s1, s2, s3 []float32) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	if useAVX2 {
		init4F32AVX2(dst, s0, s1, s2, s3)
		return
	}
	init4F32Go(dst, s0, s1, s2, s3)
}

// Add4F32 computes dst[k] = (((dst[k]+s0[k])+s1[k])+s2[k])+s3[k]: four
// sequential dst[k] += sj[k] statements, with one store per element.
// Every s must hold at least len(dst) elements.
//
//pimdl:hotpath
func Add4F32(dst, s0, s1, s2, s3 []float32) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	if useAVX2 {
		add4F32AVX2(dst, s0, s1, s2, s3)
		return
	}
	add4F32Go(dst, s0, s1, s2, s3)
}

// AddF32 computes dst[k] += src[k] for every k of src; dst must hold at
// least len(src) elements.
//
//pimdl:hotpath
func AddF32(dst, src []float32) {
	dst = dst[:len(src)]
	if useAVX2 {
		addF32AVX2(dst, src)
		return
	}
	addF32Go(dst, src)
}

// Add4I8 computes dst[k] += int32(s0[k]) + … + int32(s3[k]), each INT8
// entry sign-extended. Integer addition is exact, so any grouping gives
// the same sum. Every s must hold at least len(dst) elements.
//
//pimdl:hotpath
func Add4I8(dst []int32, s0, s1, s2, s3 []int8) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	if useAVX2 {
		add4I8AVX2(dst, s0, s1, s2, s3)
		return
	}
	add4I8Go(dst, s0, s1, s2, s3)
}

// AddI8 computes dst[k] += int32(src[k]) for every k of src; dst must
// hold at least len(src) elements.
//
//pimdl:hotpath
func AddI8(dst []int32, src []int8) {
	dst = dst[:len(src)]
	if useAVX2 {
		addI8AVX2(dst, src)
		return
	}
	addI8Go(dst, src)
}

// AddScaled4F32 computes, for every j of c,
//
//	c[j] = (((c[j] + float32(a0·b0[j])) + float32(a1·b1[j])) + float32(a2·b2[j])) + float32(a3·b3[j])
//
// the matmul kernel's four-p update: each product rounded on its own,
// then added in ascending p. Every b must hold at least len(c) elements.
//
//pimdl:hotpath
func AddScaled4F32(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	n := len(c)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	if useAVX2 {
		addScaled4F32AVX2(c, a0, a1, a2, a3, b0, b1, b2, b3)
		return
	}
	addScaled4F32Go(c, a0, a1, a2, a3, b0, b1, b2, b3)
}

// The Go fallbacks. Each takes operands already resliced to one length.
// The float loops are unrolled eight wide: an element's chain is
// dependent adds of ~4 cycles each, so eight elements in flight keep
// two FP add ports busy. Unrolling changes no arithmetic.

//pimdl:hotpath
func init4F32Go(dst, s0, s1, s2, s3 []float32) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	k := 0
	for ; k+7 < n; k += 8 {
		r0 := 0 + s0[k]
		r1 := 0 + s0[k+1]
		r2 := 0 + s0[k+2]
		r3 := 0 + s0[k+3]
		r4 := 0 + s0[k+4]
		r5 := 0 + s0[k+5]
		r6 := 0 + s0[k+6]
		r7 := 0 + s0[k+7]
		r0 += s1[k]
		r1 += s1[k+1]
		r2 += s1[k+2]
		r3 += s1[k+3]
		r4 += s1[k+4]
		r5 += s1[k+5]
		r6 += s1[k+6]
		r7 += s1[k+7]
		r0 += s2[k]
		r1 += s2[k+1]
		r2 += s2[k+2]
		r3 += s2[k+3]
		r4 += s2[k+4]
		r5 += s2[k+5]
		r6 += s2[k+6]
		r7 += s2[k+7]
		r0 += s3[k]
		r1 += s3[k+1]
		r2 += s3[k+2]
		r3 += s3[k+3]
		r4 += s3[k+4]
		r5 += s3[k+5]
		r6 += s3[k+6]
		r7 += s3[k+7]
		dst[k] = r0
		dst[k+1] = r1
		dst[k+2] = r2
		dst[k+3] = r3
		dst[k+4] = r4
		dst[k+5] = r5
		dst[k+6] = r6
		dst[k+7] = r7
	}
	for ; k < n; k++ {
		r := 0 + s0[k]
		r += s1[k]
		r += s2[k]
		r += s3[k]
		dst[k] = r
	}
}

//pimdl:hotpath
func add4F32Go(dst, s0, s1, s2, s3 []float32) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	k := 0
	for ; k+7 < n; k += 8 {
		r0 := dst[k] + s0[k]
		r1 := dst[k+1] + s0[k+1]
		r2 := dst[k+2] + s0[k+2]
		r3 := dst[k+3] + s0[k+3]
		r4 := dst[k+4] + s0[k+4]
		r5 := dst[k+5] + s0[k+5]
		r6 := dst[k+6] + s0[k+6]
		r7 := dst[k+7] + s0[k+7]
		r0 += s1[k]
		r1 += s1[k+1]
		r2 += s1[k+2]
		r3 += s1[k+3]
		r4 += s1[k+4]
		r5 += s1[k+5]
		r6 += s1[k+6]
		r7 += s1[k+7]
		r0 += s2[k]
		r1 += s2[k+1]
		r2 += s2[k+2]
		r3 += s2[k+3]
		r4 += s2[k+4]
		r5 += s2[k+5]
		r6 += s2[k+6]
		r7 += s2[k+7]
		r0 += s3[k]
		r1 += s3[k+1]
		r2 += s3[k+2]
		r3 += s3[k+3]
		r4 += s3[k+4]
		r5 += s3[k+5]
		r6 += s3[k+6]
		r7 += s3[k+7]
		dst[k] = r0
		dst[k+1] = r1
		dst[k+2] = r2
		dst[k+3] = r3
		dst[k+4] = r4
		dst[k+5] = r5
		dst[k+6] = r6
		dst[k+7] = r7
	}
	for ; k < n; k++ {
		r := dst[k] + s0[k]
		r += s1[k]
		r += s2[k]
		r += s3[k]
		dst[k] = r
	}
}

//pimdl:hotpath
func addF32Go(dst, src []float32) {
	n := len(src)
	dst = dst[:n]
	k := 0
	for ; k+7 < n; k += 8 {
		dst[k] += src[k]
		dst[k+1] += src[k+1]
		dst[k+2] += src[k+2]
		dst[k+3] += src[k+3]
		dst[k+4] += src[k+4]
		dst[k+5] += src[k+5]
		dst[k+6] += src[k+6]
		dst[k+7] += src[k+7]
	}
	for ; k < n; k++ {
		dst[k] += src[k]
	}
}

//pimdl:hotpath
func add4I8Go(dst []int32, s0, s1, s2, s3 []int8) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	k := 0
	for ; k+1 < n; k += 2 {
		r0 := dst[k] + int32(s0[k])
		r1 := dst[k+1] + int32(s0[k+1])
		r0 += int32(s1[k])
		r1 += int32(s1[k+1])
		r0 += int32(s2[k])
		r1 += int32(s2[k+1])
		r0 += int32(s3[k])
		r1 += int32(s3[k+1])
		dst[k] = r0
		dst[k+1] = r1
	}
	for ; k < n; k++ {
		dst[k] += int32(s0[k]) + int32(s1[k]) + int32(s2[k]) + int32(s3[k])
	}
}

//pimdl:hotpath
func addI8Go(dst []int32, src []int8) {
	n := len(src)
	dst = dst[:n]
	k := 0
	for ; k+7 < n; k += 8 {
		dst[k] += int32(src[k])
		dst[k+1] += int32(src[k+1])
		dst[k+2] += int32(src[k+2])
		dst[k+3] += int32(src[k+3])
		dst[k+4] += int32(src[k+4])
		dst[k+5] += int32(src[k+5])
		dst[k+6] += int32(src[k+6])
		dst[k+7] += int32(src[k+7])
	}
	for ; k < n; k++ {
		dst[k] += int32(src[k])
	}
}

// addScaled4F32Go converts each product to float32 before the add, so
// that no GOARCH fuses it into a multiply-add, which rounds once
// instead of twice.
//
//pimdl:hotpath
func addScaled4F32Go(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, s := range c {
		s += float32(a0 * b0[j])
		s += float32(a1 * b1[j])
		s += float32(a2 * b2[j])
		s += float32(a3 * b3[j])
		c[j] = s
	}
}
