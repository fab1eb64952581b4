// Package nn is the neural-network substrate: a tape-based reverse-mode
// autograd engine over dense matrices, common layers (dense, LSTM cell,
// self-attention), losses and optimizers. The AGGREGATE and COMBINE
// operators of the operator layer (internal/operator) and every GNN in
// internal/algo are built on it, replacing the TensorFlow runtime of the
// paper's production deployment.
package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Param is a trainable parameter: a value matrix plus an accumulated
// gradient of the same shape. Params persist across training steps and are
// updated by an Optimizer.
type Param struct {
	Name string
	Val  *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a parameter with Xavier initialization.
func NewParam(name string, rows, cols int, rng *rand.Rand) *Param {
	p := &Param{Name: name, Val: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
	p.Val.XavierInit(rng)
	return p
}

// NewParamGaussian allocates a parameter with N(0, std²) initialization.
func NewParamGaussian(name string, rows, cols int, std float64, rng *rand.Rand) *Param {
	p := &Param{Name: name, Val: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
	p.Val.GaussianInit(rng, std)
	return p
}

// NewParamZero allocates a zero-initialized parameter (biases).
func NewParamZero(name string, rows, cols int) *Param {
	return &Param{Name: name, Val: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Node is a value in the computation graph. Nodes are created through Tape
// operations; leaves come from Input (constants) or Use (parameters).
type Node struct {
	Val  *tensor.Matrix
	grad *tensor.Matrix

	tape  *Tape
	needs bool   // participates in backprop
	back  func() // accumulates into input grads; nil for leaves
	param *Param // non-nil for parameter leaves
}

// Grad exposes the accumulated gradient of a node after Backward; intended
// for tests and diagnostics.
func (n *Node) Grad() *tensor.Matrix { return n.grad }

// Tape records operations in execution order so Backward can replay them in
// reverse. A tape is used for one forward/backward pass and then discarded.
// Every op allocates its output afresh, and zeroing those allocations is a
// measurable share of a training step, so only Backward allocates gradient
// buffers: a forward-only tape (inference, evaluation) allocates none.
type Tape struct {
	nodes []*Node
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

func (t *Tape) node(val *tensor.Matrix, needs bool, back func()) *Node {
	n := &Node{Val: val, tape: t, needs: needs, back: back}
	t.nodes = append(t.nodes, n)
	return n
}

// Input registers a constant leaf (no gradient).
func (t *Tape) Input(m *tensor.Matrix) *Node {
	return t.node(m, false, nil)
}

// Use registers a parameter leaf; gradients accumulate into p.Grad.
func (t *Tape) Use(p *Param) *Node {
	n := t.node(p.Val, true, nil)
	n.grad = p.Grad // accumulate directly into the parameter's gradient
	n.param = p
	return n
}

// Backward runs reverse-mode differentiation from a scalar (1x1) loss node.
func (t *Tape) Backward(loss *Node) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic("nn: Backward requires a scalar loss node")
	}
	if !loss.needs {
		return // loss does not depend on any parameter
	}
	for _, n := range t.nodes {
		if n.needs && n.grad == nil {
			n.grad = tensor.New(n.Val.Rows, n.Val.Cols)
		}
	}
	loss.grad.Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.needs {
			n.back()
		}
	}
}
