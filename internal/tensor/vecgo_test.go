package tensor

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// vecUseAVX2 is internal/vec's unexported path switch.
//
//go:linkname vecUseAVX2 repro/internal/vec.useAVX2
var vecUseAVX2 bool

// TestMatMulOraclesOnVecFallback runs the matmul oracles again with
// internal/vec's Go fallbacks forced, so an AVX2 host checks both the
// assembly and the fallback against the scalar ikj oracle.
func TestMatMulOraclesOnVecFallback(t *testing.T) {
	if !vecUseAVX2 {
		t.Skip("internal/vec already runs its Go fallbacks in this build")
	}
	vecUseAVX2 = false
	defer func() { vecUseAVX2 = true }()
	t.Run("MatMul", TestMatMulParallelMatchesSerial)
	t.Run("MatMulTN", TestMatMulTNMatchesOracle)
}
