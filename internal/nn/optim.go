package nn

import (
	"math"
	"runtime"
	"sync"

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
				g += float64(o.WeightDecay * p.Val.Data[i])
			}
			p.Val.Data[i] -= float64(o.LR * g)
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

// Step implements Optimizer. Every element updates independently of the
// others, so the combined element range of params is split evenly across
// GOMAXPROCS goroutines with no effect on the bits. The params must be
// distinct.
func (o *Adam) Step(params []*Param) {
	o.t++
	total := 0
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p] = tensor.New(p.Val.Rows, p.Val.Cols)
			o.v[p] = tensor.New(p.Val.Rows, p.Val.Cols)
		}
		total += len(p.Grad.Data)
	}
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.update(params, total*i/w, total*(i+1)/w)
		}()
	}
	o.update(params, 0, total/w)
	wg.Wait()
}

// update applies the Adam step (tensor.AdamUpdate) to elements [lo, hi) of
// the concatenation of params' elements and clears their gradients.
func (o *Adam) update(params []*Param, lo, hi int) {
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	off := 0
	for _, p := range params {
		n := len(p.Grad.Data)
		a, b := max(lo-off, 0), min(hi-off, n)
		off += n
		if a >= b {
			continue
		}
		grad := p.Grad.Data[a:b]
		tensor.AdamUpdate(p.Val.Data[a:b], o.m[p].Data[a:b], o.v[p].Data[a:b], grad, o.LR, o.Beta1, o.Beta2, o.Eps, bc1, bc2)
		clear(grad)
	}
}

// ClipGrad rescales gradients so their global norm is at most maxNorm.
func ClipGrad(params []*Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += float64(g * g)
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
