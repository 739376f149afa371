package tensor

import "math"

// QTensor is a symmetric per-tensor INT8 quantization of a float tensor,
// as used for the LUTs on UPMEM (the paper quantizes all LUTs to INT8 with
// a reported ≤0.1% accuracy drop).
type QTensor struct {
	Data  []int8
	Scale float32 // dequantized value = Scale * int8
	shape []int
}

// QuantizeINT8 converts t into a symmetric INT8 tensor. The scale maps the
// maximum absolute value onto ±127.
func QuantizeINT8(t *Tensor) *QTensor {
	var maxAbs float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	//pimdl:lint-ignore float-compare exact zero means an all-zero tensor; any positive scale is equivalent
	if scale == 0 {
		scale = 1
	}
	q := &QTensor{
		Data:  make([]int8, len(t.Data)),
		Scale: scale,
		shape: append([]int(nil), t.shape...),
	}
	inv := 1 / scale
	for i, v := range t.Data {
		r := math.Round(float64(v * inv))
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		q.Data[i] = int8(r)
	}
	return q
}

// Dequantize reconstructs a float tensor.
//
//pimdl:lint-ignore deadexport inverse of QuantizeINT8, the round-trip oracle of the tensor tests
func (q *QTensor) Dequantize() *Tensor {
	t := New(q.shape...)
	for i, v := range q.Data {
		t.Data[i] = float32(v) * q.Scale
	}
	return t
}
