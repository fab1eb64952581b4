package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Activation is a Dense layer's element-wise nonlinearity, which the layer
// applies and differentiates itself. The zero value is the identity.
type Activation uint8

const (
	ActIdentity Activation = iota
	ActReLU
	ActTanh
)

// apply replaces every element of m with its activation: Tape.ReLU's and
// Tape.Tanh's forward functions, in place. ReLU leaves a positive element
// as it is, which is what math.Max(0, v) returns for it.
func (a Activation) apply(m *tensor.Matrix) {
	switch a {
	case ActReLU:
		for i, v := range m.Data {
			if !(v > 0) {
				m.Data[i] = math.Max(0, v)
			}
		}
	case ActTanh:
		for i, v := range m.Data {
			m.Data[i] = math.Tanh(v)
		}
	}
}

// grad returns the gradient with respect to the pre-activation z given the
// output y and its gradient g. For the identity that is g itself; otherwise
// a fresh matrix holding +0 + g·act′, the bits Tape.ReLU's and Tape.Tanh's
// backward write into their input's fresh gradient buffer. ReLU's
// derivative reads y > 0, which holds exactly when z > 0.
func (a Activation) grad(y, g *tensor.Matrix) *tensor.Matrix {
	if a == ActIdentity {
		return g
	}
	dz := tensor.New(g.Rows, g.Cols)
	switch a {
	case ActReLU:
		for i, gv := range g.Data {
			var d float64
			if y.Data[i] > 0 {
				d = 1
			}
			dz.Data[i] += gv * d
		}
	case ActTanh:
		for i, gv := range g.Data {
			yv := y.Data[i]
			dz.Data[i] += gv * (1 - yv*yv)
		}
	}
	return dz
}

// Dense is a fully connected layer y = act(x @ W + b) and one tape node:
// the operator of Section 3.4 with its forward and backward computation.
type Dense struct {
	W, B *Param
	Act  Activation
}

// NewDense creates a dense layer with Xavier init.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	return &Dense{
		W:   NewParam(name+".W", in, out, rng),
		B:   NewParamZero(name+".b", 1, out),
		Act: act,
	}
}

// Forward applies the layer to the input x = [xs[0] || xs[1] || ...], the
// column blocks Concat would join, without building x: block p is
// multiplied by the matching row block W_p of W, the products accumulate in
// one buffer, and the bias and activation are applied to it in place. The
// output and every gradient have the bits of MatMul, AddBias and the
// activation over Concat(xs...), which record up to four nodes and two
// parameter leaves where the layer records one node.
//
// Backward forms the pre-activation gradient dz and writes from it the
// bias gradient, each block's input gradient dz @ W_pᵀ (through
// accumKernel, so a block's first contribution lands in its fresh buffer)
// and W's gradient, whose row block p is x_pᵀ @ dz.
func (d *Dense) Forward(t *Tape, xs ...*Node) *Node {
	rows := xs[0].Val.Rows
	val := tensor.New(rows, d.W.Val.Cols)
	off := 0
	for _, x := range xs {
		tensor.MatMulAdd(val, x.Val, d.W.Val.RowSlice(off, off+x.Val.Cols))
		off += x.Val.Cols
	}
	if off != d.W.Val.Rows {
		panic("nn: Dense input width does not match W's rows")
	}
	for i := 0; i < rows; i++ {
		row := val.Row(i)
		for j, bv := range d.B.Val.Row(0) {
			row[j] += bv
		}
	}
	d.Act.apply(val)
	out := t.node(val, true, nil)
	out.back = func() {
		dz := d.Act.grad(val, out.grad)
		t.accumParam(d.B, func(bg *tensor.Matrix) {
			brow := bg.Row(0)
			for i := 0; i < dz.Rows; i++ {
				for j, gv := range dz.Row(i) {
					brow[j] += gv
				}
			}
		})
		gw := tensor.New(d.W.Val.Rows, d.W.Val.Cols)
		off := 0
		for _, x := range xs {
			lo, hi := off, off+x.Val.Cols
			if x.needs {
				t.accumKernel(x, func(g *tensor.Matrix) { tensor.MatMulTransBAdd(g, dz, d.W.Val.RowSlice(lo, hi)) })
			}
			tensor.MatMulTransAAdd(gw.RowSlice(lo, hi), x.Val, dz)
			off = hi
		}
		t.accumParam(d.W, addMatrix(gw))
	}
	return out
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds dims[0] -> dims[1] -> ... with act on all but the last
// layer.
func NewMLP(name string, dims []int, act Activation, rng *rand.Rand) *MLP {
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		a := ActIdentity
		if i+2 < len(dims) {
			a = act
		}
		m.Layers = append(m.Layers, NewDense(name, dims[i], dims[i+1], a, rng))
	}
	return m
}

// Forward applies the stack.
func (m *MLP) Forward(t *Tape, x *Node) *Node {
	for _, l := range m.Layers {
		x = l.Forward(t, x)
	}
	return x
}

// Params returns all layer parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// LSTMCell is a standard LSTM cell used by the LSTM AGGREGATE operator and
// the Evolving GNN's sequence model. Gates are packed [i f g o].
type LSTMCell struct {
	Wx, Wh, B *Param
	Hidden    int
}

// NewLSTMCell creates a cell mapping input size in to hidden size h.
func NewLSTMCell(name string, in, h int, rng *rand.Rand) *LSTMCell {
	return &LSTMCell{
		Wx:     NewParam(name+".Wx", in, 4*h, rng),
		Wh:     NewParam(name+".Wh", h, 4*h, rng),
		B:      NewParamZero(name+".b", 1, 4*h),
		Hidden: h,
	}
}

// Step advances the cell one timestep: x is B x in, hPrev and cPrev are
// B x h (nil means zeros). It returns the new hidden and cell states.
func (l *LSTMCell) Step(t *Tape, x, hPrev, cPrev *Node) (hNext, cNext *Node) {
	b := x.Val.Rows
	if hPrev == nil {
		hPrev = t.Input(tensor.New(b, l.Hidden))
	}
	if cPrev == nil {
		cPrev = t.Input(tensor.New(b, l.Hidden))
	}
	z := t.AddBias(t.Add(t.MatMul(x, t.Use(l.Wx)), t.MatMul(hPrev, t.Use(l.Wh))), t.Use(l.B))
	h := l.Hidden
	i := t.Sigmoid(t.SliceCols(z, 0, h))
	f := t.Sigmoid(t.SliceCols(z, h, 2*h))
	g := t.Tanh(t.SliceCols(z, 2*h, 3*h))
	o := t.Sigmoid(t.SliceCols(z, 3*h, 4*h))
	cNext = t.Add(t.Mul(f, cPrev), t.Mul(i, g))
	hNext = t.Mul(o, t.Tanh(cNext))
	return hNext, cNext
}

// Params returns the trainable parameters.
func (l *LSTMCell) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// SelfAttention is the structured self-attention of Lin et al. used by
// GATNE's edge-type attention: scores = softmax(w2 @ tanh(W1 @ Xᵀ)),
// output = scores @ X.
type SelfAttention struct {
	W1, W2 *Param
	DA     int
}

// NewSelfAttention creates an attention head over d-dimensional inputs with
// da attention units.
func NewSelfAttention(name string, d, da int, rng *rand.Rand) *SelfAttention {
	return &SelfAttention{
		W1: NewParam(name+".W1", d, da, rng),
		W2: NewParam(name+".W2", da, 1, rng),
		DA: da,
	}
}

// Forward computes attention weights over the K rows of x (K x d) and
// returns (weights K x 1 via softmax over rows, pooled 1 x d).
func (a *SelfAttention) Forward(t *Tape, x *Node) (weights, pooled *Node) {
	// scores: K x 1
	scores := t.MatMul(t.Tanh(t.MatMul(x, t.Use(a.W1))), t.Use(a.W2))
	// Softmax over the K rows: transpose trick via reshape — scores is K x 1
	// so softmax must run down the column. Use exp/sum for a column softmax.
	e := t.Exp(scores)
	total := t.SumAll(e)
	// weights_i = e_i / total: implement as e * (1/total) via division node.
	weights = t.DivScalarNode(e, total)
	// pooled = weightsᵀ @ x : 1 x d
	pooled = t.MatMul(t.TransposeNode(weights), x)
	return weights, pooled
}

// Params returns the trainable parameters.
func (a *SelfAttention) Params() []*Param { return []*Param{a.W1, a.W2} }

// TransposeNode transposes a node's matrix differentiably.
func (t *Tape) TransposeNode(a *Node) *Node {
	val := a.Val.Transpose()
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, addMatrix(out.grad.Transpose()))
		}
	}
	return out
}

// DivScalarNode divides every element of a by the 1x1 scalar node s.
func (t *Tape) DivScalarNode(a, s *Node) *Node {
	sv := s.Val.Data[0]
	val := a.Val.Clone()
	val.ScaleInPlace(1 / sv)
	needs := a.needs || s.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accum(a, func(g *tensor.Matrix) { g.Axpy(1/sv, out.grad) })
			}
			if s.needs {
				g := 0.0
				for i, ov := range out.grad.Data {
					g -= ov * a.Val.Data[i] / (sv * sv)
				}
				t.accum(s, func(sg *tensor.Matrix) { sg.Data[0] += g })
			}
		}
	}
	return out
}
