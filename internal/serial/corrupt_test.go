package serial

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/lutnn"
	"repro/internal/tensor"
)

// validLayerBytes serializes one small converted layer (with INT8 table
// and bias) for the corruption tests.
func validLayerBytes(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	acts := tensor.RandN(rng, 1, 32, 8)
	w := tensor.RandN(rng, 1, 6, 8)
	bias := tensor.RandN(rng, 1, 6)
	layer, err := lutnn.Convert(w, bias, acts, lutnn.Params{V: 2, CT: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	layer.EnableINT8()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Layer(layer); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadLayerTruncated feeds every proper prefix of a valid layer file
// to the loader. Each must come back as an error — never a panic and
// never a silent success on partial data.
func TestReadLayerTruncated(t *testing.T) {
	data := validLayerBytes(t)
	for n := 0; n < len(data); n++ {
		n := n
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decoder.Layer panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := NewDecoder(bytes.NewReader(data[:n])).Layer(); err == nil {
				t.Fatalf("Decoder.Layer accepted a %d-byte prefix of a %d-byte file", n, len(data))
			}
		}()
	}
}

// TestReadLayerBitFlips flips one byte at a time across the header region
// and requires the loader to either reject the file or return a
// structurally consistent layer — crashing is not an option for a model
// loader.
func TestReadLayerBitFlips(t *testing.T) {
	data := validLayerBytes(t)
	limit := len(data)
	if limit > 64 {
		limit = 64 // headers and dimensions live at the front
	}
	for i := 0; i < limit; i++ {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decoder.Layer panicked with byte %d flipped: %v", i, r)
				}
			}()
			ly, err := NewDecoder(bytes.NewReader(corrupted)).Layer()
			if err != nil {
				return
			}
			if ly.Codebooks == nil || ly.Table == nil {
				t.Fatalf("byte %d flipped: loader returned incomplete layer without error", i)
			}
		}()
	}
}

// TestOverflowingDims hand-crafts headers whose per-dimension values pass
// the individual maxDim bound but whose product overflows int. The loader
// must reject them instead of allocating through a wrapped size.
func TestOverflowingDims(t *testing.T) {
	u32 := func(b *bytes.Buffer, v uint32) {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], v)
		b.Write(tmp[:])
	}
	header := func(magic string) *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(magic)
		b.Write([]byte{version, 0}) // little-endian uint16
		return &b
	}
	huge := uint32(1 << 27) // < maxDim each; product overflows
	// Each sub-object is reached through a layer stream; the parts before
	// the overflowing one are minimal 1×1×1 objects.
	layer := func(hasQ bool) *bytes.Buffer {
		b := header(magicLayer)
		if hasQ {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		b.WriteByte(0) // no bias
		return b
	}
	unit := func(b *bytes.Buffer, magic string) {
		b.Write(header(magic).Bytes())
		u32(b, 1)
		u32(b, 1)
		u32(b, 1)
	}

	b := layer(false)
	b.Write(header(magicCodebooks).Bytes())
	u32(b, huge)
	u32(b, huge)
	u32(b, huge)
	if _, err := NewDecoder(bytes.NewReader(b.Bytes())).Layer(); err == nil {
		t.Fatal("Decoder.Layer accepted overflowing codebook dimensions")
	}

	b = layer(false)
	unit(b, magicCodebooks)
	u32(b, 0) // the one codebook element
	b.Write(header(magicLUT).Bytes())
	u32(b, huge)
	u32(b, huge)
	u32(b, huge)
	if _, err := NewDecoder(bytes.NewReader(b.Bytes())).Layer(); err == nil {
		t.Fatal("Decoder.Layer accepted overflowing LUT dimensions")
	}

	b = layer(true)
	unit(b, magicCodebooks)
	u32(b, 0)
	unit(b, magicLUT)
	u32(b, 0) // the one table element
	b.Write(header(magicQLUT).Bytes())
	u32(b, huge)
	u32(b, huge)
	u32(b, huge)
	u32(b, 0x3f800000) // scale = 1.0
	if _, err := NewDecoder(bytes.NewReader(b.Bytes())).Layer(); err == nil {
		t.Fatal("Decoder.Layer accepted overflowing quantized LUT dimensions")
	}

	// Rank-8 tensor of huge dims: the shape product wraps far past int64.
	b = header(magicTensor)
	u32(b, 8)
	for i := 0; i < 8; i++ {
		u32(b, huge)
	}
	if _, err := NewDecoder(bytes.NewReader(b.Bytes())).Tensor(); err == nil {
		t.Fatal("Decoder.Tensor accepted overflowing shape")
	}
}

// TestBadMagicAndVersion covers the outermost rejects.
func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("XXXX\x01\x00"))).Layer(); err == nil {
		t.Fatal("Decoder.Layer accepted bad magic")
	}
	if _, err := NewDecoder(bytes.NewReader([]byte(magicLayer + "\x63\x00"))).Layer(); err == nil {
		t.Fatal("Decoder.Layer accepted unsupported version")
	}
}
