//go:build amd64 && !purego

package vec

// useAVX2 selects the assembly leaves. It is set once, from the CPU,
// before any caller runs; tests clear it to run the Go fallbacks.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		xmmYMMOS = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYMMOS != xmmYMMOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// Implemented in vec_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
//pimdl:hotpath
func init4F32AVX2(dst, s0, s1, s2, s3 []float32)

//go:noescape
//pimdl:hotpath
func add4F32AVX2(dst, s0, s1, s2, s3 []float32)

//go:noescape
//pimdl:hotpath
func addF32AVX2(dst, src []float32)

//go:noescape
//pimdl:hotpath
func add4I8AVX2(dst []int32, s0, s1, s2, s3 []int8)

//go:noescape
//pimdl:hotpath
func addI8AVX2(dst []int32, src []int8)

//go:noescape
//pimdl:hotpath
func addScaled4F32AVX2(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
