package lutnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kmeans"
	"repro/internal/tensor"
)

// buildCodebooksSerial is the one-codebook-after-another loop that
// BuildCodebooks fans out over the worker pool.
func buildCodebooksSerial(acts *tensor.Tensor, p Params, seed int64) *Codebooks {
	n, h := acts.Dim(0), acts.Dim(1)
	cb := h / p.V
	out := NewCodebooks(cb, p.CT, p.V)
	sub := make([]float32, n*p.V)
	for c := 0; c < cb; c++ {
		for i := 0; i < n; i++ {
			copy(sub[i*p.V:(i+1)*p.V], acts.Row(i)[c*p.V:(c+1)*p.V])
		}
		res := kmeans.Run(sub, n, p.V, kmeans.Config{K: p.CT, Seed: seed + int64(c), Restarts: 1})
		copy(out.Data[c*p.CT*p.V:(c+1)*p.CT*p.V], res.Centroids)
	}
	return out
}

// buildLUTSerial is the serial table build BuildLUT fans out over
// codebooks.
func buildLUTSerial(c *Codebooks, w *tensor.Tensor) *LUT {
	f := w.Dim(0)
	l := &LUT{CB: c.CB, CT: c.CT, F: f, Data: make([]float32, c.CB*c.CT*f)}
	for cb := 0; cb < c.CB; cb++ {
		for ct := 0; ct < c.CT; ct++ {
			cent := c.Centroid(cb, ct)
			dst := l.Slice(cb, ct)
			for fi := 0; fi < f; fi++ {
				wrow := w.Row(fi)[cb*c.V : (cb+1)*c.V]
				var s float32
				for v := range cent {
					s += cent[v] * wrow[v]
				}
				dst[fi] = s
			}
		}
	}
	return l
}

// firstBitDiff returns the first index at which a and b differ bitwise,
// or -1 if they are identical.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: differs from the serial oracle at value %d (lengths %d, %d)", what, i, len(got), len(want))
	}
}

// TestBuildMatchesSerialOracleAcrossGOMAXPROCS holds the per-codebook
// fan-out of BuildCodebooks and BuildLUT to the serial loops above, bit
// for bit, at GOMAXPROCS 1, 2 and 8. At 512 rows the codebook loop
// splits while each kmeans.Run stays inline; at 4,096 rows (V ≥ 4) the
// inner kmeans parallel.For splits too, so nested dispatch is covered.
func TestBuildMatchesSerialOracleAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, shape := range []struct{ n, h int }{{512, 64}, {4096, 16}} {
		for _, v := range []int{2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(shape.n + v)))
			acts := randActs(rng, shape.n, shape.h)
			w := tensor.RandN(rng, 0.1, 512, shape.h)
			p := Params{V: v, CT: 16}
			const seed = 5
			wantCB := buildCodebooksSerial(acts, p, seed)
			wantLUT := buildLUTSerial(wantCB, w)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				gotCB, err := BuildCodebooks(acts, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				gotLUT, err := BuildLUT(gotCB, w)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("n=%d V=%d GOMAXPROCS=%d", shape.n, v, procs)
				requireSameBits(t, "codebooks "+tag, gotCB.Data, wantCB.Data)
				requireSameBits(t, "table "+tag, gotLUT.Data, wantLUT.Data)
			}
		}
	}
}

// TestBuildRejectsBadInputBeforeFanOut checks that the inputs a pool
// worker would panic on come back as errors on the caller's goroutine.
func TestBuildRejectsBadInputBeforeFanOut(t *testing.T) {
	if _, err := BuildCodebooks(tensor.FromSlice(nil, 0, 8), Params{V: 4, CT: 16}, 1); err == nil {
		t.Fatal("BuildCodebooks accepted zero calibration rows")
	}
	short := &Codebooks{CB: 2, CT: 4, V: 4, Data: make([]float32, 2*4*4-1)}
	if _, err := BuildLUT(short, tensor.New(3, 8)); err == nil {
		t.Fatal("BuildLUT accepted codebook data shorter than CB·CT·V")
	}
}
