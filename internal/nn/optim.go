package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and clears
// them. Updating modes (synchronous here; the distributed trainer shards
// mini-batches) follow Section 3.3's note that samplers and operators both
// carry backward computations.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step implements Optimizer.
func (o SGD) Step(params []*Param) {
	for _, p := range params {
		for i, g := range p.Grad.Data {
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.Val.Data[i]
			}
			p.Val.Data[i] -= o.LR * g
		}
		p.ZeroGrad()
	}
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR, Beta float64
	vel      map[*Param]*tensor.Matrix
}

// NewMomentum creates a momentum optimizer.
func NewMomentum(lr, beta float64) *Momentum {
	return &Momentum{LR: lr, Beta: beta, vel: make(map[*Param]*tensor.Matrix)}
}

// Step implements Optimizer.
func (o *Momentum) Step(params []*Param) {
	for _, p := range params {
		v := o.vel[p]
		if v == nil {
			v = tensor.New(p.Val.Rows, p.Val.Cols)
			o.vel[p] = v
		}
		for i, g := range p.Grad.Data {
			v.Data[i] = o.Beta*v.Data[i] + g
			p.Val.Data[i] -= o.LR * v.Data[i]
		}
		p.ZeroGrad()
	}
}

// AdaGrad adapts per-coordinate learning rates by accumulated squared
// gradients; a good default for sparse embedding tables.
type AdaGrad struct {
	LR  float64
	Eps float64
	acc map[*Param]*tensor.Matrix
}

// NewAdaGrad creates an AdaGrad optimizer.
func NewAdaGrad(lr float64) *AdaGrad {
	return &AdaGrad{LR: lr, Eps: 1e-8, acc: make(map[*Param]*tensor.Matrix)}
}

// Step implements Optimizer.
func (o *AdaGrad) Step(params []*Param) {
	for _, p := range params {
		a := o.acc[p]
		if a == nil {
			a = tensor.New(p.Val.Rows, p.Val.Cols)
			o.acc[p] = a
		}
		for i, g := range p.Grad.Data {
			if g == 0 {
				continue // sparse embedding rows: skip untouched coordinates
			}
			a.Data[i] += g * g
			p.Val.Data[i] -= o.LR * g / (math.Sqrt(a.Data[i]) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]*tensor.Matrix
}

// NewAdam creates Adam with standard hyper-parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix), v: make(map[*Param]*tensor.Matrix),
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	lr, b1, b2, eps := o.LR, o.Beta1, o.Beta2, o.Eps
	for _, p := range params {
		m, v := o.m[p], o.v[p]
		if m == nil {
			m = tensor.New(p.Val.Rows, p.Val.Cols)
			v = tensor.New(p.Val.Rows, p.Val.Cols)
			o.m[p], o.v[p] = m, v
		}
		grad := p.Grad.Data
		val, md, vd := p.Val.Data[:len(grad)], m.Data[:len(grad)], v.Data[:len(grad)]
		for i, g := range grad {
			md[i] = b1*md[i] + (1-b1)*g
			vd[i] = b2*vd[i] + (1-b2)*g*g
			mh := md[i] / bc1
			vh := vd[i] / bc2
			val[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
		p.ZeroGrad()
	}
}

// ClipGrad rescales gradients so their global norm is at most maxNorm.
func ClipGrad(params []*Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
}
