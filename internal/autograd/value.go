// Package autograd implements a tape-based reverse-mode automatic
// differentiation engine over the tensor package.
//
// PIM-DL needs gradients in two places: to train the (small) reference
// transformers used by the accuracy experiments, and to run eLUT-NN
// calibration, where centroid codebooks are updated through a
// reconstruction loss and a straight-through estimator (paper §4.2,
// Eqs. 1–2). The engine is deliberately minimal: rank-2 tensors flow
// through a static set of operators, each of which records a closure that
// accumulates gradients into its inputs.
package autograd

import (
	"repro/internal/tensor"
)

// Value is a node in the autodiff graph: a tensor plus an optional gradient
// and the backward closure that produced it.
type Value struct {
	T    *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	back         func()
	prev         []*Value
}

// NewParam wraps t as a trainable leaf (gradient is accumulated).
func NewParam(t *tensor.Tensor) *Value {
	return &Value{T: t, requiresGrad: true}
}

// NewConst wraps t as a non-trainable leaf.
func NewConst(t *tensor.Tensor) *Value {
	return &Value{T: t}
}

// node creates an interior graph node whose requiresGrad is inherited from
// its inputs.
func node(t *tensor.Tensor, prev ...*Value) *Value {
	rg := false
	for _, p := range prev {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	return &Value{T: t, requiresGrad: rg, prev: prev}
}

// ensureGrad lazily allocates v's gradient buffer.
func (v *Value) ensureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.T.Shape()...)
	}
	return v.Grad
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Backward runs reverse-mode differentiation from v, which must be a
// scalar-shaped (1×1 or size-1) value (it panics otherwise). Gradients
// accumulate into every reachable Value with requiresGrad set.
func (v *Value) Backward() {
	if v.T.Size() != 1 {
		panic("autograd: Backward requires a scalar loss")
	}
	order := topoSort(v)
	v.ensureGrad()
	v.Grad.Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.requiresGrad {
			n.back()
		}
	}
}

func topoSort(root *Value) []*Value {
	var order []*Value
	seen := map[*Value]bool{}
	var visit func(*Value)
	visit = func(n *Value) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, p := range n.prev {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}
