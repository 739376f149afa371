package autograd

import "math"

// Adam is the Adam optimizer (Kingma & Ba). The paper calibrates eLUT-NN
// models with learning rates 1e-5–5e-5; Adam is the standard choice for
// transformer fine-tuning.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	params  []*Value
	m, v    [][]float32
	step    int
	ClipMax float64 // if > 0, gradients are clipped to this global L2 norm
}

// NewAdam creates an Adam optimizer over params with standard betas.
func NewAdam(lr float64, params ...*Value) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float32, len(params))
	a.v = make([][]float32, len(params))
	for i, p := range params {
		a.m[i] = make([]float32, p.T.Size())
		a.v[i] = make([]float32, p.T.Size())
	}
	return a
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Step applies one Adam update using the accumulated gradients.
func (a *Adam) Step() {
	a.step++
	if a.ClipMax > 0 {
		a.clip()
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			gf := float64(g)
			m[j] = float32(a.Beta1*float64(m[j]) + (1-a.Beta1)*gf)
			v[j] = float32(a.Beta2*float64(v[j]) + (1-a.Beta2)*gf*gf)
			mhat := float64(m[j]) / bc1
			vhat := float64(v[j]) / bc2
			p.T.Data[j] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}

func (a *Adam) clip() {
	var norm float64
	for _, p := range a.params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			norm += float64(g) * float64(g)
		}
	}
	norm = math.Sqrt(norm)
	if norm <= a.ClipMax {
		return
	}
	scale := float32(a.ClipMax / norm)
	for _, p := range a.params {
		if p.Grad == nil {
			continue
		}
		for j := range p.Grad.Data {
			p.Grad.Data[j] *= scale
		}
	}
}
