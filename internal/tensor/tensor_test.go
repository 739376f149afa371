package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	a := New(3, 4, 5)
	if a.Size() != 60 {
		t.Fatalf("size = %d, want 60", a.Size())
	}
	if a.Rank() != 3 || a.Dim(0) != 3 || a.Dim(1) != 4 || a.Dim(2) != 5 {
		t.Fatalf("bad shape %v", a.Shape())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if got := a.At(1, 2); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := a.Data[1*3+2]; got != 7 {
		t.Fatalf("row-major offset wrong: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone aliases data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape must alias data")
	}
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("bad reshape %v", b.Shape())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulTMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 1, 17, 23)
	b := RandN(rng, 1, 9, 23) // (n×k)
	got := MatMulT(a, b)
	want := MatMul(a, transpose(b))
	if !AllClose(got, want, 1e-4) {
		t.Fatalf("MatMulT disagrees with MatMul∘Transpose, max diff %g", MaxAbsDiff(got, want))
	}
}

// transpose returns aᵀ for a rank-2 tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			t.Data[j*m+i] = v
		}
	}
	return t
}

// matMulOracle is the scalar reference for the MatMul kernel: ikj order,
// each c[i][j] starting at +0 and receiving float32(a[i][p]·b[p][j]) for
// p in ascending order, an exactly-zero a[i][p] skipped. The tiled
// kernel promises this exact evaluation order, so its results must
// match bit for bit.
func matMulOracle(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float32(av * b[p*n+j])
			}
		}
	}
	return c
}

// matMulCase is one A (m×k) · B (k×n) product of the oracle grid.
type matMulCase struct {
	name    string
	m, k, n int
	a, b    []float32
}

// matMulGrid builds the oracle grid: k from one short group to three
// groups and a tail, and m×n on both sides of the pool's threshold: four
// shapes run inline, and two, sized by k, split into chunks (two rows
// into two; 37 rows into four, the last one short). Each shape gets
// random operands (finite, then with Inf and NaN), then an exact zero in
// each position of every four-p group with ±Inf or NaN in the B row
// behind it, then ±1 against an all-−0 B, whose output must be +0 since
// every sum starts from the zeroed C.
func matMulGrid() []matMulCase {
	rng := rand.New(rand.NewSource(34))
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	var cases []matMulCase
	for _, k := range []int{1, 3, 4, 5, 8, 13} {
		for _, s := range []struct{ m, n int }{{1, 1}, {2, 5}, {7, 9}, {33, 64}, {2, 150000 / k}, {37, 16000 / k}} {
			add := func(name string, a, b []float32) {
				cases = append(cases, matMulCase{fmt.Sprintf("m=%d k=%d n=%d %s", s.m, k, s.n, name), s.m, k, s.n, a, b})
			}
			add("finite", oracleOperand(rng, s.m*k, false), oracleOperand(rng, k*s.n, false))
			add("non-finite", oracleOperand(rng, s.m*k, true), oracleOperand(rng, k*s.n, true))
			for pos := 0; pos < 4 && pos < k; pos++ {
				a := oracleOperand(rng, s.m*k, false)
				b := oracleOperand(rng, k*s.n, false)
				for p := pos; p < k; p += 4 {
					for i := 0; i < s.m; i++ {
						a[i*k+p] = float32(math.Copysign(0, float64(i%2)-0.5))
					}
					for j := 0; j < s.n; j++ {
						b[p*s.n+j] = nonFinite[j%len(nonFinite)]
					}
				}
				add(fmt.Sprintf("zero at group position %d", pos), a, b)
			}
			a := make([]float32, s.m*k)
			for i := range a {
				a[i] = float32(1 - 2*(i%2))
			}
			b := make([]float32, k*s.n)
			for i := range b {
				b[i] = float32(math.Copysign(0, -1))
			}
			add("all -0", a, b)
		}
	}
	return cases
}

// sameBitsNaN is sameBits with every NaN equal to every other: when both
// operands of an add are NaN, which one the hardware returns depends on
// the operand order the compiler picks, which Go leaves open (and which
// changes with inlining), so the oracle cannot pin a NaN's sign.
func sameBitsNaN(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(w))) {
			t.Fatalf("%s: output %d = %#08x (%g), oracle %#08x (%g)", what, j,
				math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// TestMatMulParallelMatchesSerial holds MatMul, inline and split over
// the pool, to the scalar ikj oracle under Float32bits on the whole
// grid. make convert-smoke runs it at -cpu 1,2,8.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	for _, c := range matMulGrid() {
		got := MatMul(FromSlice(c.a, c.m, c.k), FromSlice(c.b, c.k, c.n))
		sameBitsNaN(t, "MatMul "+c.name, got.Data, matMulOracle(c.a, c.b, c.m, c.k, c.n))
		if strings.HasSuffix(c.name, "all -0") {
			for j, v := range got.Data {
				if math.Float32bits(v) != 0 {
					t.Fatalf("MatMul %s: output %d = %#08x, want +0", c.name, j, math.Float32bits(v))
				}
			}
		}
	}
}

// TestMatMulTNMatchesOracle holds MatMulTN(Aᵀ, B), which reads A column
// by column, to MatMul(A, B) over the transposed copy and to the scalar
// oracle, bit for bit, on the same grid.
func TestMatMulTNMatchesOracle(t *testing.T) {
	for _, c := range matMulGrid() {
		at := transpose(FromSlice(c.a, c.m, c.k))
		b := FromSlice(c.b, c.k, c.n)
		got := MatMulTN(at, b)
		if got.Dim(0) != c.m || got.Dim(1) != c.n {
			t.Fatalf("MatMulTN %s: shape %v", c.name, got.Shape())
		}
		sameBitsNaN(t, "MatMulTN "+c.name, got.Data, MatMul(transpose(at), b).Data)
		sameBitsNaN(t, "MatMulTN "+c.name, got.Data, matMulOracle(c.a, c.b, c.m, c.k, c.n))
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := RandN(rng, 1, m, n)
		return Equal(transpose(transpose(a)), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 4, 4)
		b := RandN(rng, 1, 4, 4)
		return AllClose(Sub(Add(a, b), b), a, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(rng, 5, 6, 10)
	s := SoftmaxRows(a)
	for i := 0; i < 6; i++ {
		var sum float32
		for _, v := range s.Row(i) {
			if v < 0 {
				t.Fatal("softmax produced negative value")
			}
			sum += v
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxRowsStableForLargeInputs(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 1002}, 1, 3)
	s := SoftmaxRows(a)
	for _, v := range s.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
	}
}

func TestLayerNormRowsIntoMatchesLayerNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandN(rng, 1, 3, 8)
	gamma, beta := RandN(rng, 1, 8), RandN(rng, 1, 8)
	want := LayerNormRows(a, gamma, beta, 1e-5)
	dst := New(3, 8)
	dst.Fill(7)
	LayerNormRowsInto(dst, a, gamma, beta, 1e-5)
	LayerNormRowsInto(a, a, gamma, beta, 1e-5) // in place
	for i, w := range want.Data {
		if math.Float32bits(dst.Data[i]) != math.Float32bits(w) || math.Float32bits(a.Data[i]) != math.Float32bits(w) {
			t.Fatalf("elem %d: into %v, in place %v, want %v", i, dst.Data[i], a.Data[i], w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	LayerNormRowsInto(New(2, 8), want, gamma, beta, 1e-5)
}

func TestLayerNormRowsNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandN(rng, 3, 4, 16)
	gamma := New(16)
	gamma.Fill(1)
	beta := New(16)
	out := LayerNormRows(a, gamma, beta, 1e-5)
	for i := 0; i < 4; i++ {
		row := out.Row(i)
		var mean, varSum float32
		for _, v := range row {
			mean += v
		}
		mean /= 16
		for _, v := range row {
			varSum += (v - mean) * (v - mean)
		}
		varSum /= 16
		if math.Abs(float64(mean)) > 1e-4 {
			t.Fatalf("row %d mean %v", i, mean)
		}
		if math.Abs(float64(varSum)-1) > 1e-2 {
			t.Fatalf("row %d var %v", i, varSum)
		}
	}
}

func TestGELUKnownValues(t *testing.T) {
	a := FromSlice([]float32{0, 1, -1, 3}, 4)
	g := GELU(a)
	if g.Data[0] != 0 {
		t.Fatalf("gelu(0) = %v", g.Data[0])
	}
	if math.Abs(float64(g.Data[1])-0.8412) > 1e-3 {
		t.Fatalf("gelu(1) = %v", g.Data[1])
	}
	// gelu(x) + gelu(−x) = x·(2Φ(x)−1) ≈ 0.6827 at x = 1.
	if math.Abs(float64(g.Data[1]+g.Data[2])-0.6827) > 2e-3 {
		t.Fatalf("gelu(1)+gelu(-1) = %v, want ≈0.6827", g.Data[1]+g.Data[2])
	}
	if g.Data[3] < 2.9 {
		t.Fatalf("gelu(3) = %v, should approach 3", g.Data[3])
	}
}

// TestGELUMatchesSerialRows holds the pool-split GELU to one serial
// GELURowInto pass over the whole tensor, bit for bit, on shapes below
// the pool's threshold (inline) and above it (split into row chunks,
// one of them short), with signed zeros, subnormals, infinities and NaN
// among the inputs. make decode-smoke runs it at -cpu 1,2,8.
func TestGELUMatchesSerialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, shape := range [][]int{{7}, {3, 5}, {2, 3, 4}, {128, 1024}, {257, 129}, {4, 33, 300}} {
		a := New(shape...)
		copy(a.Data, oracleOperand(rng, a.Size(), true))
		want := make([]float32, a.Size())
		GELURowInto(want, a.Data)
		g := GELU(a)
		if fmt.Sprint(g.Shape()) != fmt.Sprint(shape) {
			t.Fatalf("GELU shape %v, want %v", g.Shape(), shape)
		}
		sameBits(t, fmt.Sprintf("GELU %v", shape), g.Data, want)
		GELUInto(a, a)
		sameBits(t, fmt.Sprintf("GELUInto in place %v", shape), a.Data, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("GELUInto with a wrong output shape did not panic")
		}
	}()
	GELUInto(New(3, 4), New(4, 3))
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	idx := ArgMaxRows(a)
	if idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("argmax = %v", idx)
	}
}

func TestAddBias(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddBias(a, b)
	want := []float32{11, 22, 13, 24}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("a[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestRelativeError(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{1, 1}, 2)
	if RelativeError(a, b) != 0 {
		t.Fatal("identical tensors should have zero error")
	}
	c := FromSlice([]float32{2, 2}, 2)
	if got := RelativeError(c, a); math.Abs(got-1) > 1e-6 {
		t.Fatalf("error = %v, want 1", got)
	}
}

func TestConcatAndSliceRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandN(rng, 1, 3, 4)
	b := RandN(rng, 1, 2, 4)
	c := ConcatRows(a, b)
	if c.Dim(0) != 5 {
		t.Fatalf("concat rows = %d", c.Dim(0))
	}
	if !Equal(SliceRows(c, 0, 3), a) || !Equal(SliceRows(c, 3, 5), b) {
		t.Fatal("slice does not invert concat")
	}
}

func TestQuantizeINT8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandN(rng, 1, 16, 16)
	q := QuantizeINT8(a)
	d := q.Dequantize()
	// Max quantization error is scale/2 per element.
	if MaxAbsDiff(a, d) > float64(q.Scale)*0.51 {
		t.Fatalf("quant error %g exceeds half-step %g", MaxAbsDiff(a, d), q.Scale/2)
	}
}

func TestQuantizeINT8ZeroTensor(t *testing.T) {
	a := New(4, 4)
	q := QuantizeINT8(a)
	d := q.Dequantize()
	if !Equal(a, d) {
		t.Fatal("zero tensor should quantize exactly")
	}
}

func TestQuantizeINT8ClampsExtremes(t *testing.T) {
	a := FromSlice([]float32{127, -127, 1}, 3)
	q := QuantizeINT8(a)
	if q.Data[0] != 127 || q.Data[1] != -127 {
		t.Fatalf("extremes: %v", q.Data)
	}
}

func TestQuantErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 8, 8)
		e := RelativeError(QuantizeINT8(a).Dequantize(), a)
		// INT8 symmetric quantization of Gaussian data keeps relative error small.
		return e >= 0 && e < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := XavierInit(rng, 64, 64, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128))
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside Xavier bound %v", v, limit)
		}
	}
}

func TestAXPY(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 10}, 2)
	AXPY(a, 0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 7 {
		t.Fatalf("axpy = %v", a.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := RandN(rng, 1, n, n)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		return AllClose(MatMul(a, eye), a, 1e-5) && AllClose(MatMul(eye, a), a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 4, 5)
		b := RandN(rng, 1, 5, 3)
		c := RandN(rng, 1, 5, 3)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(left, right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatMulRelation(t *testing.T) {
	// (A·B)ᵀ = Bᵀ·Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 3, 4)
		b := RandN(rng, 1, 4, 5)
		left := transpose(MatMul(a, b))
		right := MatMul(transpose(b), transpose(a))
		return AllClose(left, right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 3, 5)
		shifted := a.Clone()
		for i := range shifted.Data {
			shifted.Data[i] += 7.5
		}
		return AllClose(SoftmaxRows(a), SoftmaxRows(shifted), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// AllClose reports whether a and b match within absolute tolerance tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !sameShape(a.shape, b.shape) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

// matVecTOracle is the scalar reference for MatVecTInto: one float32
// accumulator per output, starting at zero and summing a[p]·B[j][p] in
// ascending p. The tiled kernel promises this exact evaluation order, so
// its results must match bit for bit.
func matVecTOracle(dst, a, b []float32, n, k int) {
	for j := 0; j < n; j++ {
		var s float32
		for p := 0; p < k; p++ {
			s += a[p] * b[j*k+p]
		}
		dst[j] = s
	}
}

// oracleOperand fills a slice with normal values sprinkled with the
// float32 edge cases: signed zeros and subnormals always, plus signed
// infinities and NaN when nonFinite is set. The finite-only runs keep
// the rounding of long sums under test, since one NaN or Inf in a
// poisons every output it reaches.
func oracleOperand(rng *rand.Rand, size int, nonFinite bool) []float32 {
	finite := []float32{0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001)}
	inf := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	out := make([]float32, size)
	for i := range out {
		switch r := rng.Intn(256); {
		case nonFinite && r < 2:
			out[i] = inf[rng.Intn(len(inf))]
		case r < 32:
			out[i] = finite[rng.Intn(len(finite))]
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: output %d = %#08x (%g), oracle %#08x (%g)", what, j,
				math.Float32bits(got[j]), got[j], math.Float32bits(want[j]), want[j])
		}
	}
}

func TestMatVecTIntoBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1024} {
		for _, k := range []int{0, 1, 3, 64, 256} {
			for _, nonFinite := range []bool{false, true} {
				a := oracleOperand(rng, k, nonFinite)
				b := oracleOperand(rng, n*k, nonFinite)
				got, want := make([]float32, n), make([]float32, n)
				for j := range got {
					// Every output must be written. The sentinel is not a
					// NaN, which sameBitsNaN would match to any NaN result.
					got[j] = -1234.5
				}
				MatVecTInto(got, a, b, n, k)
				matVecTOracle(want, a, b, n, k)
				sameBitsNaN(t, fmt.Sprintf("MatVecTInto n=%d k=%d", n, k), got, want)
			}
		}
	}
}

// TestMatMulTIntoBitIdenticalToOracle covers the parallelRows fan-out:
// odd row counts smaller than a typical worker count, each large enough
// in k·n to split into per-row chunks, and a 33-row case whose chunk grid
// leaves a short last chunk.
func TestMatMulTIntoBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range []struct{ m, n, k int }{
		{1, 1024, 256}, {3, 1024, 256}, {5, 257, 256}, {7, 9, 3}, {33, 257, 256},
	} {
		for _, nonFinite := range []bool{false, true} {
			a := oracleOperand(rng, s.m*s.k, nonFinite)
			b := oracleOperand(rng, s.n*s.k, nonFinite)
			c := New(s.m, s.n)
			MatMulTInto(c, FromSlice(a, s.m, s.k), FromSlice(b, s.n, s.k))
			want := make([]float32, s.m*s.n)
			for i := 0; i < s.m; i++ {
				matVecTOracle(want[i*s.n:(i+1)*s.n], a[i*s.k:(i+1)*s.k], b, s.n, s.k)
			}
			sameBitsNaN(t, fmt.Sprintf("MatMulTInto m=%d n=%d k=%d", s.m, s.n, s.k), c.Data, want)
		}
	}
}

func TestMatVecTIntoShapeMismatchPanics(t *testing.T) {
	for _, s := range []struct{ dst, a, b, n, k int }{
		{4, 3, 11, 4, 3}, {3, 3, 12, 4, 3}, {4, 2, 12, 4, 3}, {4, 3, 13, 4, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatVecTInto dst=%d a=%d b=%d n=%d k=%d did not panic", s.dst, s.a, s.b, s.n, s.k)
				}
			}()
			MatVecTInto(make([]float32, s.dst), make([]float32, s.a), make([]float32, s.b), s.n, s.k)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MatMulTN with mismatched inner dimensions did not panic")
			}
		}()
		MatMulTN(New(3, 2), New(4, 5))
	}()
	defer func() {
		if recover() == nil {
			t.Error("MatMulTInto with a wrong output shape did not panic")
		}
	}()
	MatMulTInto(New(2, 3), New(2, 4), New(4, 4))
}
