package serial

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/lutnn"
	"repro/internal/pim"
	"repro/internal/tensor"
)

func testLayer(t *testing.T, seed int64, withQ, withBias bool) *lutnn.Layer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	acts := tensor.RandN(rng, 1, 64, 16)
	w := tensor.RandN(rng, 1, 24, 16)
	var bias *tensor.Tensor
	if withBias {
		bias = tensor.RandN(rng, 1, 24)
	}
	ly, err := lutnn.Convert(w, bias, acts, lutnn.Params{V: 2, CT: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if withQ {
		ly.EnableINT8()
	}
	return ly
}

// roundTrip writes ly through an Encoder and reads it back through a
// Decoder.
func roundTrip(t *testing.T, ly *lutnn.Layer) *lutnn.Layer {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Layer(ly); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&buf).Layer()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCodebooksRoundTrip(t *testing.T) {
	ly := testLayer(t, 1, false, false)
	got := roundTrip(t, ly).Codebooks
	if got.CB != ly.Codebooks.CB || got.CT != ly.Codebooks.CT || got.V != ly.Codebooks.V {
		t.Fatal("dims lost")
	}
	for i := range got.Data {
		if got.Data[i] != ly.Codebooks.Data[i] {
			t.Fatal("data corrupted")
		}
	}
}

func TestLUTRoundTrip(t *testing.T) {
	ly := testLayer(t, 2, false, false)
	got := roundTrip(t, ly).Table
	if got.CB != ly.Table.CB || got.CT != ly.Table.CT || got.F != ly.Table.F {
		t.Fatal("dims lost")
	}
	for i := range got.Data {
		if got.Data[i] != ly.Table.Data[i] {
			t.Fatal("table corrupted")
		}
	}
}

func TestQuantizedLUTRoundTrip(t *testing.T) {
	ly := testLayer(t, 3, true, false)
	got := roundTrip(t, ly).QTable
	if got.Scale != ly.QTable.Scale {
		t.Fatal("scale lost")
	}
	for i := range got.Data {
		if got.Data[i] != ly.QTable.Data[i] {
			t.Fatal("int8 data corrupted")
		}
	}
}

func TestLayerRoundTripFullFidelity(t *testing.T) {
	for _, tc := range []struct{ q, bias bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		ly := testLayer(t, 5, tc.q, tc.bias)
		got := roundTrip(t, ly)
		// The loaded layer must produce identical outputs.
		rng := rand.New(rand.NewSource(6))
		acts := tensor.RandN(rng, 1, 16, 16)
		if !tensor.Equal(got.Forward(acts), ly.Forward(acts)) {
			t.Fatalf("q=%v bias=%v: loaded layer diverges", tc.q, tc.bias)
		}
		if (got.QTable != nil) != tc.q || (got.Bias != nil) != tc.bias {
			t.Fatal("optional fields lost")
		}
	}
}

func TestMappingRoundTrip(t *testing.T) {
	m := pim.Mapping{
		NsTile: 4096, FsTile: 32, NmTile: 128, FmTile: 32, CBmTile: 256,
		Traversal: [3]pim.Loop{pim.LoopF, pim.LoopCB, pim.LoopN},
		Scheme:    pim.CoarseLoad, CBLoadTile: 1, FLoadTile: 32,
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Mapping(m); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&buf).Mapping()
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("mapping changed: %v vs %v", got, m)
	}
}

func TestRejectsBadMagic(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("XXXX\x01\x00"))).Layer(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRejectsTruncated(t *testing.T) {
	data := validLayerBytes(t)
	trunc := data[:len(data)/2]
	if _, err := NewDecoder(bytes.NewReader(trunc)).Layer(); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestRejectsWrongVersion(t *testing.T) {
	data := append([]byte(magicLayer), 0xff, 0x00)
	if _, err := NewDecoder(bytes.NewReader(data)).Layer(); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestRejectsImplausibleDims(t *testing.T) {
	var buf bytes.Buffer
	sw := newWriter(&buf)
	layerPrefix(sw, false, false)
	sw.magic(magicCodebooks)
	sw.u32(0xffffffff) // CB = 2^32-1
	sw.u32(1)          // CT
	sw.u32(1)          // V
	if err := sw.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf).Layer(); err == nil {
		t.Fatal("implausible dims accepted")
	}
}

// TestDecoderLayerRejectsInconsistentBundle hand-assembles layer streams
// whose parts are each well-formed but disagree on shape: a table whose
// (CB, CT) is not the codebooks', an INT8 table whose (CB, CT, F) is not
// the FP32 table's, and a bias whose length is not F. Each must be
// rejected; a layer built from them would gather garbage.
func TestDecoderLayerRejectsInconsistentBundle(t *testing.T) {
	cbs44 := lutnn.NewCodebooks(4, 4, 2)
	tbl := func(cb, ct, f int) *lutnn.LUT {
		return &lutnn.LUT{CB: cb, CT: ct, F: f, Data: make([]float32, cb*ct*f)}
	}
	qtbl := func(cb, ct, f int) *lutnn.QuantizedLUT {
		return &lutnn.QuantizedLUT{CB: cb, CT: ct, F: f, Scale: 1, Data: make([]int8, cb*ct*f)}
	}
	for _, tc := range []struct {
		name string
		tbl  *lutnn.LUT
		q    *lutnn.QuantizedLUT
		bias int
	}{
		{name: "table CB/CT vs codebooks", tbl: tbl(2, 4, 6)},
		{name: "table CT vs codebooks", tbl: tbl(4, 2, 6)},
		{name: "INT8 table vs FP32 table", tbl: tbl(4, 4, 6), q: qtbl(4, 4, 5)},
		{name: "bias length vs F", tbl: tbl(4, 4, 6), bias: 5},
	} {
		var buf bytes.Buffer
		sw := newWriter(&buf)
		layerPrefix(sw, tc.q != nil, tc.bias > 0)
		writeCodebooks(sw, cbs44)
		writeLUT(sw, tc.tbl)
		if tc.q != nil {
			writeQuantizedLUT(sw, tc.q)
		}
		if tc.bias > 0 {
			sw.u32(uint32(tc.bias))
			sw.f32s(make([]float32, tc.bias))
		}
		if err := sw.flush(); err != nil {
			t.Fatal(err)
		}
		if ly, err := NewDecoder(&buf).Layer(); err == nil {
			t.Errorf("%s: inconsistent layer accepted: table (%d,%d,%d), codebooks (%d,%d)",
				tc.name, ly.Table.CB, ly.Table.CT, ly.Table.F, ly.Codebooks.CB, ly.Codebooks.CT)
		}
	}
}

// layerPrefix writes a layer header with its two presence flags, for
// tests that assemble the rest of the stream part by part.
func layerPrefix(sw *writer, hasQ, hasBias bool) {
	sw.magic(magicLayer)
	sw.bool(hasQ)
	sw.bool(hasBias)
}

func TestEncoderDecoderMultiObjectStream(t *testing.T) {
	ly := testLayer(t, 8, true, true)
	m := pim.Mapping{NsTile: 16, FsTile: 8, NmTile: 4, FmTile: 4, CBmTile: 2,
		Traversal: [3]pim.Loop{pim.LoopN, pim.LoopF, pim.LoopCB},
		Scheme:    pim.StaticLoad}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Layer(ly); err != nil {
		t.Fatal(err)
	}
	if err := enc.Mapping(m); err != nil {
		t.Fatal(err)
	}
	if err := enc.Layer(ly); err != nil { // a second layer after the mapping
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	l1, err := dec.Layer()
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := dec.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := dec.Layer()
	if err != nil {
		t.Fatal(err)
	}
	if gotM != m {
		t.Fatalf("mapping corrupted: %v", gotM)
	}
	rng := rand.New(rand.NewSource(9))
	acts := tensor.RandN(rng, 1, 8, 16)
	want := ly.Forward(acts)
	if !tensor.Equal(l1.Forward(acts), want) || !tensor.Equal(l2.Forward(acts), want) {
		t.Fatal("layers corrupted in multi-object stream")
	}
}
