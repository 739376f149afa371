package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The leaf oracles: each exported leaf, on the assembly path (where the
// CPU has it) and on the Go fallback, against a naive one-element loop
// kept here. Floats compare under Float32bits, so a ±0 flip fails; NaN
// compares as a class, because which of two NaN operands an add returns
// is the hardware's choice, not the algorithm's (DESIGN.md §6). Lengths
// 0–67 run every 32-, 16- and 8-wide step and the scalar tail, and
// every operand is a sub-slice at offset 1–7 of a guarded buffer.

// eachPath runs f once on the Go fallback and, where the CPU has AVX2
// and the build has the assembly, once on it.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	paths := []bool{false}
	if saved {
		paths = append(paths, true)
	}
	for _, asm := range paths {
		useAVX2 = asm
		name := "go"
		if asm {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

const maxLen = 67

// guardBits fills the eight slots past each operand, inside its
// capacity; a leaf that writes past its length changes one.
const guardBits = 0x7f8abcde

// special holds the values the float leaves must carry through: signed
// zeros, infinities, NaN, subnormals and the extremes.
var special = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// floats returns n values at offset off of a guarded buffer. Most are
// random with exponents spread over ±2^20, so that reordering two adds
// changes some rounding; with specials, about one in eight is special.
func floats(rng *rand.Rand, n, off int, specials bool) []float32 {
	buf := make([]float32, off+n+8)
	for i := range buf {
		buf[i] = math.Float32frombits(guardBits)
	}
	s := buf[off : off+n]
	for i := range s {
		if specials && rng.Intn(8) == 0 {
			s[i] = special[rng.Intn(len(special))]
			continue
		}
		s[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20))
	}
	return s
}

func int8s(rng *rand.Rand, n, off int) []int8 {
	buf := make([]int8, off+n+8)
	s := buf[off : off+n]
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = -128
		case 1:
			s[i] = 127
		default:
			s[i] = int8(rng.Intn(256) - 128)
		}
	}
	return s
}

func int32s(rng *rand.Rand, n, off int) []int32 {
	buf := make([]int32, off+n+8)
	for i := range buf {
		buf[i] = guardBits
	}
	s := buf[off : off+n]
	for i := range s {
		if rng.Intn(8) == 0 { // near the ends, so that the sums wrap
			s[i] = math.MaxInt32 - int32(rng.Intn(300))
			if rng.Intn(2) == 0 {
				s[i] = math.MinInt32 + int32(rng.Intn(300))
			}
			continue
		}
		s[i] = int32(rng.Intn(1<<20) - 1<<19)
	}
	return s
}

func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for k := range want {
		g, w := got[k], want[k]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %#08x (%g), oracle %#08x (%g)", what, k,
				math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
	for k, g := range got[len(got) : len(got)+8] {
		if math.Float32bits(g) != guardBits {
			t.Fatalf("%s: wrote %g to slot %d past the end", what, g, k)
		}
	}
}

func TestInit4F32MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				s := [4][]float32{}
				for j := range s {
					s[j] = floats(rng, n, off+j, true)
				}
				want := make([]float32, n)
				for k := range want {
					var r float32
					for j := range s {
						r += s[j][k]
					}
					want[k] = r
				}
				dst := floats(rng, n, off, true)
				Init4F32(dst, s[0], s[1], s[2], s[3])
				sameFloats(t, fmt.Sprintf("Init4F32 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

// TestInit4F32AllNegativeZero: every sum of four −0 starts from +0 and
// so is +0, never −0.
func TestInit4F32AllNegativeZero(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		nz := float32(math.Copysign(0, -1))
		for n := 0; n <= maxLen; n++ {
			s := make([]float32, n)
			for k := range s {
				s[k] = nz
			}
			dst := make([]float32, n)
			for k := range dst {
				dst[k] = nz
			}
			Init4F32(dst, s, s, s, s)
			for k, v := range dst {
				if math.Float32bits(v) != 0 {
					t.Fatalf("n=%d: element %d = %#08x, want +0", n, k, math.Float32bits(v))
				}
			}
		}
	})
}

func TestAdd4F32MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				s := [4][]float32{}
				for j := range s {
					s[j] = floats(rng, n, off+j, true)
				}
				dst := floats(rng, n, off, true)
				want := append([]float32(nil), dst...)
				for j := range s {
					for k := range want {
						want[k] += s[j][k]
					}
				}
				Add4F32(dst, s[0], s[1], s[2], s[3])
				sameFloats(t, fmt.Sprintf("Add4F32 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

func TestAddF32MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				src := floats(rng, n, off+3, true)
				dst := floats(rng, n, off, true)
				want := append([]float32(nil), dst...)
				for k := range want {
					want[k] += src[k]
				}
				AddF32(dst, src)
				sameFloats(t, fmt.Sprintf("AddF32 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

func TestAddScaled4F32MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				var a [4]float32
				b := [4][]float32{}
				for j := range b {
					a[j] = floats(rng, 1, 0, true)[0]
					b[j] = floats(rng, n, off+j, true)
				}
				dst := floats(rng, n, off, true)
				want := append([]float32(nil), dst...)
				for j := range b {
					for k := range want {
						want[k] += float32(a[j] * b[j][k])
					}
				}
				AddScaled4F32(dst, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
				sameFloats(t, fmt.Sprintf("AddScaled4F32 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

// TestAddScaled4F32RoundsEachProduct: a fused multiply-add would keep
// the low bits of a·b that the separate multiply rounds away.
// (1+2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴ rounds to 1 + 2⁻¹¹ (ties to even), and
// adding −(1+2⁻¹¹) then leaves 0; fused, it would leave 2⁻²⁴.
func TestAddScaled4F32RoundsEachProduct(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		x := float32(1 + math.Ldexp(1, -12))
		for n := 0; n <= maxLen; n++ {
			c := make([]float32, n)
			b, z := make([]float32, n), make([]float32, n)
			for k := range c {
				c[k] = -(1 + float32(math.Ldexp(1, -11)))
				b[k] = x
			}
			AddScaled4F32(c, x, 0, 0, 0, b, z, z, z)
			for k, v := range c {
				if v != 0 {
					t.Fatalf("n=%d: element %d = %g, want 0 (product rounded before the add)", n, k, v)
				}
			}
		}
	})
}

func TestAdd4I8MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				s := [4][]int8{}
				for j := range s {
					s[j] = int8s(rng, n, off+j)
				}
				dst := int32s(rng, n, off)
				want := append([]int32(nil), dst...)
				for j := range s {
					for k := range want {
						want[k] += int32(s[j][k])
					}
				}
				Add4I8(dst, s[0], s[1], s[2], s[3])
				sameInts(t, fmt.Sprintf("Add4I8 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

func TestAddI8MatchesOracle(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for n := 0; n <= maxLen; n++ {
			for off := 1; off <= 7; off++ {
				src := int8s(rng, n, off+2)
				dst := int32s(rng, n, off)
				want := append([]int32(nil), dst...)
				for k := range want {
					want[k] += int32(src[k])
				}
				AddI8(dst, src)
				sameInts(t, fmt.Sprintf("AddI8 n=%d off=%d", n, off), dst, want)
			}
		}
	})
}

func sameInts(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: element %d = %d, oracle %d", what, k, got[k], want[k])
		}
	}
	for k, g := range got[len(got) : len(got)+8] {
		if g != guardBits {
			t.Fatalf("%s: wrote %d to slot %d past the end", what, g, k)
		}
	}
}

// TestShortOperandPanics: a source shorter than the destination is a
// bounds error before any element is written.
func TestShortOperandPanics(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"Init4F32": func() {
				Init4F32(make([]float32, 9), make([]float32, 9), make([]float32, 8), make([]float32, 9), make([]float32, 9))
			},
			"Add4F32": func() {
				Add4F32(make([]float32, 9), make([]float32, 9), make([]float32, 9), make([]float32, 9), make([]float32, 8))
			},
			"AddF32": func() { AddF32(make([]float32, 8), make([]float32, 9)) },
			"Add4I8": func() { Add4I8(make([]int32, 9), make([]int8, 8), make([]int8, 9), make([]int8, 9), make([]int8, 9)) },
			"AddI8":  func() { AddI8(make([]int32, 8), make([]int8, 9)) },
			"AddScaled4F32": func() {
				AddScaled4F32(make([]float32, 9), 1, 1, 1, 1, make([]float32, 9), make([]float32, 8), make([]float32, 9), make([]float32, 9))
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with a short operand did not panic", name)
					}
				}()
				f()
			}()
		}
	})
}
