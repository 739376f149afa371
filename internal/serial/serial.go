// Package serial provides a compact binary format for deployable PIM-DL
// artifacts: converted layers (codebooks, FP32 and INT8 lookup tables,
// bias), tuned mapping parameters, tensors and JSON configs, written by
// an Encoder and read back by a Decoder. The format is little-endian,
// versioned, and self-describing enough that a loader can reject
// mismatched shapes instead of mis-reading them.
//
// Layout: every object starts with a 4-byte magic and a uint16 version,
// followed by fixed-width dimensions and raw payload. Writers flush
// through a bufio layer; readers validate sizes before allocating.
package serial

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/lutnn"
	"repro/internal/pim"
	"repro/internal/tensor"
)

const (
	version = 1

	magicCodebooks = "PDCB"
	magicLUT       = "PDLT"
	magicQLUT      = "PDQT"
	magicLayer     = "PDLY"
	magicMapping   = "PDMP"
	magicTensor    = "PDTN"
	magicJSON      = "PDJS"
)

// maxDim bounds any serialized dimension; reject anything bigger as
// corrupt rather than allocating unbounded memory.
const maxDim = 1 << 28

// maxElems bounds the total element count of any serialized payload.
// Without it, a corrupt header whose per-dimension values are individually
// plausible can overflow the int product, turn into a small (or negative)
// allocation size, and panic the loader instead of returning an error.
const maxElems = 1 << 28

type writer struct {
	w   *bufio.Writer
	err error
}

func newWriter(w io.Writer) *writer { return &writer{w: bufio.NewWriter(w)} }

func (w *writer) magic(m string) { w.bytes([]byte(m)); w.u16(version) }

func (w *writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.bytes(b[:])
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }

func (w *writer) f32s(vs []float32) {
	if w.err != nil {
		return
	}
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	w.bytes(buf)
}

func (w *writer) i8s(vs []int8) {
	if w.err != nil {
		return
	}
	buf := make([]byte, len(vs))
	for i, v := range vs {
		buf[i] = byte(v)
	}
	w.bytes(buf)
}

func (w *writer) bool(v bool) {
	if v {
		w.bytes([]byte{1})
	} else {
		w.bytes([]byte{0})
	}
}

func (w *writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

type reader struct {
	r   *bufio.Reader
	err error
}

func newReader(r io.Reader) *reader { return &reader{r: bufio.NewReader(r)} }

func (r *reader) magic(want string) {
	got := make([]byte, 4)
	r.bytes(got)
	if r.err == nil && string(got) != want {
		r.err = fmt.Errorf("serial: bad magic %q, want %q", got, want)
	}
	if v := r.u16(); r.err == nil && v != version {
		r.err = fmt.Errorf("serial: unsupported version %d", v)
	}
}

func (r *reader) bytes(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
}

func (r *reader) u16() uint16 {
	var b [2]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) dim(what string) int {
	v := r.u32()
	if r.err == nil && (v == 0 || v > maxDim) {
		r.err = fmt.Errorf("serial: implausible %s dimension %d", what, v)
	}
	return int(v)
}

// elems returns the overflow-checked product of already-validated
// dimensions, failing the read if it exceeds maxElems. Every payload
// allocation goes through this, so a malformed model file is rejected as
// an error instead of crashing the loader.
func (r *reader) elems(what string, dims ...int) int {
	if r.err != nil {
		return 0
	}
	n := 1
	for _, d := range dims {
		if d <= 0 || n > maxElems/d {
			r.err = fmt.Errorf("serial: implausible %s element count %v", what, dims)
			return 0
		}
		n *= d
	}
	return n
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *reader) f32s(n int) []float32 {
	if r.err != nil {
		return nil
	}
	buf := make([]byte, 4*n)
	r.bytes(buf)
	if r.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

func (r *reader) i8s(n int) []int8 {
	if r.err != nil {
		return nil
	}
	buf := make([]byte, n)
	r.bytes(buf)
	if r.err != nil {
		return nil
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(buf[i])
	}
	return out
}

func (r *reader) bool() bool {
	var b [1]byte
	r.bytes(b[:])
	return b[0] != 0
}

func writeCodebooks(sw *writer, c *lutnn.Codebooks) {
	sw.magic(magicCodebooks)
	sw.u32(uint32(c.CB))
	sw.u32(uint32(c.CT))
	sw.u32(uint32(c.V))
	sw.f32s(c.Data)
}

func readCodebooks(sr *reader) (*lutnn.Codebooks, error) {
	sr.magic(magicCodebooks)
	cb, ct, v := sr.dim("CB"), sr.dim("CT"), sr.dim("V")
	n := sr.elems("codebook", cb, ct, v)
	if sr.err != nil {
		return nil, sr.err
	}
	out := lutnn.NewCodebooks(cb, ct, v)
	copy(out.Data, sr.f32s(n))
	return out, sr.err
}

func writeLUT(sw *writer, l *lutnn.LUT) {
	sw.magic(magicLUT)
	sw.u32(uint32(l.CB))
	sw.u32(uint32(l.CT))
	sw.u32(uint32(l.F))
	sw.f32s(l.Data)
}

func readLUT(sr *reader) (*lutnn.LUT, error) {
	sr.magic(magicLUT)
	cb, ct, f := sr.dim("CB"), sr.dim("CT"), sr.dim("F")
	n := sr.elems("LUT", cb, ct, f)
	if sr.err != nil {
		return nil, sr.err
	}
	data := sr.f32s(n)
	if sr.err != nil {
		return nil, sr.err
	}
	return &lutnn.LUT{CB: cb, CT: ct, F: f, Data: data}, nil
}

func writeQuantizedLUT(sw *writer, q *lutnn.QuantizedLUT) {
	sw.magic(magicQLUT)
	sw.u32(uint32(q.CB))
	sw.u32(uint32(q.CT))
	sw.u32(uint32(q.F))
	sw.f32(q.Scale)
	sw.i8s(q.Data)
}

func readQuantizedLUT(sr *reader) (*lutnn.QuantizedLUT, error) {
	sr.magic(magicQLUT)
	cb, ct, f := sr.dim("CB"), sr.dim("CT"), sr.dim("F")
	scale := sr.f32()
	n := sr.elems("quantized LUT", cb, ct, f)
	if sr.err != nil {
		return nil, sr.err
	}
	data := sr.i8s(n)
	if sr.err != nil {
		return nil, sr.err
	}
	return &lutnn.QuantizedLUT{CB: cb, CT: ct, F: f, Scale: scale, Data: data}, nil
}

// Encoder writes artifacts sequentially to one stream through a single
// buffered writer.
type Encoder struct {
	sw *writer
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{sw: newWriter(w)} }

// Layer appends a converted layer.
func (e *Encoder) Layer(ly *lutnn.Layer) error {
	e.sw.magic(magicLayer)
	e.sw.bool(ly.QTable != nil)
	e.sw.bool(ly.Bias != nil)
	writeCodebooks(e.sw, ly.Codebooks)
	writeLUT(e.sw, ly.Table)
	if ly.QTable != nil {
		writeQuantizedLUT(e.sw, ly.QTable)
	}
	if ly.Bias != nil {
		e.sw.u32(uint32(ly.Bias.Size()))
		e.sw.f32s(ly.Bias.Data)
	}
	return e.sw.err
}

// Mapping appends tuned mapping parameters.
func (e *Encoder) Mapping(m pim.Mapping) error {
	e.sw.magic(magicMapping)
	for _, v := range []int{m.NsTile, m.FsTile, m.NmTile, m.FmTile, m.CBmTile,
		int(m.Traversal[0]), int(m.Traversal[1]), int(m.Traversal[2]),
		int(m.Scheme), m.CBLoadTile, m.FLoadTile} {
		e.sw.u32(uint32(v))
	}
	return e.sw.err
}

// Flush commits buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.sw.flush() }

// Decoder reads artifacts sequentially from one stream; all reads share
// one buffer, so a file may hold several objects.
type Decoder struct {
	sr *reader
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{sr: newReader(r)} }

// Layer reads the next converted layer.
func (d *Decoder) Layer() (*lutnn.Layer, error) {
	d.sr.magic(magicLayer)
	hasQ := d.sr.bool()
	hasBias := d.sr.bool()
	if d.sr.err != nil {
		return nil, d.sr.err
	}
	cbs, err := readCodebooks(d.sr)
	if err != nil {
		return nil, err
	}
	tbl, err := readLUT(d.sr)
	if err != nil {
		return nil, err
	}
	if tbl.CB != cbs.CB || tbl.CT != cbs.CT {
		return nil, fmt.Errorf("serial: layer table (%d,%d) inconsistent with codebooks (%d,%d)",
			tbl.CB, tbl.CT, cbs.CB, cbs.CT)
	}
	ly := &lutnn.Layer{Codebooks: cbs, Table: tbl}
	if hasQ {
		q, err := readQuantizedLUT(d.sr)
		if err != nil {
			return nil, err
		}
		if q.CB != tbl.CB || q.CT != tbl.CT || q.F != tbl.F {
			return nil, fmt.Errorf("serial: layer INT8 table (%d,%d,%d) inconsistent with FP32 table (%d,%d,%d)",
				q.CB, q.CT, q.F, tbl.CB, tbl.CT, tbl.F)
		}
		ly.QTable = q
	}
	if hasBias {
		n := d.sr.dim("bias")
		if d.sr.err != nil {
			return nil, d.sr.err
		}
		if n != tbl.F {
			return nil, fmt.Errorf("serial: layer bias length %d != table F %d", n, tbl.F)
		}
		data := d.sr.f32s(n)
		if d.sr.err != nil {
			return nil, d.sr.err
		}
		ly.Bias = biasTensor(data)
	}
	return ly, nil
}

// Mapping reads the next tuned mapping.
func (d *Decoder) Mapping() (pim.Mapping, error) {
	d.sr.magic(magicMapping)
	vals := make([]uint32, 11)
	for i := range vals {
		vals[i] = d.sr.u32()
	}
	if d.sr.err != nil {
		return pim.Mapping{}, d.sr.err
	}
	return pim.Mapping{
		NsTile: int(vals[0]), FsTile: int(vals[1]),
		NmTile: int(vals[2]), FmTile: int(vals[3]), CBmTile: int(vals[4]),
		Traversal:  [3]pim.Loop{pim.Loop(vals[5]), pim.Loop(vals[6]), pim.Loop(vals[7])},
		Scheme:     pim.LoadScheme(vals[8]),
		CBLoadTile: int(vals[9]), FLoadTile: int(vals[10]),
	}, nil
}

// Tensor appends a float32 tensor (any rank).
func (e *Encoder) Tensor(t *tensor.Tensor) error {
	e.sw.bytes([]byte(magicTensor))
	e.sw.u16(version)
	shape := t.Shape()
	e.sw.u32(uint32(len(shape)))
	for _, d := range shape {
		e.sw.u32(uint32(d))
	}
	e.sw.f32s(t.Data)
	return e.sw.err
}

// Tensor reads the next float32 tensor.
func (d *Decoder) Tensor() (*tensor.Tensor, error) {
	d.sr.magic(magicTensor)
	rank := d.sr.u32()
	if d.sr.err != nil {
		return nil, d.sr.err
	}
	if rank == 0 || rank > 8 {
		return nil, fmt.Errorf("serial: implausible tensor rank %d", rank)
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = d.sr.dim("tensor")
	}
	n := d.sr.elems("tensor", shape...)
	if d.sr.err != nil {
		return nil, d.sr.err
	}
	data := d.sr.f32s(n)
	if d.sr.err != nil {
		return nil, d.sr.err
	}
	return tensor.FromSlice(data, shape...), nil
}

// JSON appends a length-prefixed JSON document (used for model configs).
func (e *Encoder) JSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.sw.bytes([]byte(magicJSON))
	e.sw.u16(version)
	e.sw.u32(uint32(len(data)))
	e.sw.bytes(data)
	return e.sw.err
}

// JSON reads the next JSON document into v.
func (d *Decoder) JSON(v any) error {
	d.sr.magic(magicJSON)
	n := d.sr.dim("json")
	if d.sr.err != nil {
		return d.sr.err
	}
	buf := make([]byte, n)
	d.sr.bytes(buf)
	if d.sr.err != nil {
		return d.sr.err
	}
	return json.Unmarshal(buf, v)
}
