// Package nn is the neural-network substrate: a tape-based reverse-mode
// autograd engine over dense matrices, common layers (dense, LSTM cell,
// self-attention), losses and optimizers. The AGGREGATE and COMBINE
// operators of the operator layer (internal/operator) and every GNN in
// internal/algo are built on it, replacing the TensorFlow runtime of the
// paper's production deployment.
//
// A product that is added or subtracted is written float64(x*y): the
// explicit conversion rounds it, which forbids the compiler to fuse it into
// a multiply-add (arm64 would), so the bits are the same on every
// architecture. scripts/check-nofma.sh checks this package, tensor,
// operator and core.
package nn

import (
	"math/rand"
	"sync"

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

	needs   bool   // participates in backprop
	written bool   // a contribution has been written to grad
	back    func() // accumulates into input grads; nil for leaves
	param   *Param // non-nil for parameter leaves
}

// Grad exposes the accumulated gradient of a node after Backward; intended
// for tests and diagnostics.
func (n *Node) Grad() *tensor.Matrix { return n.grad }

// Tape records operations in execution order so Backward can replay them in
// reverse. A tape serves one forward/backward pass and is then discarded.
// Every op allocates its output afresh, and allocating and zeroing are a
// measurable share of a training step, so only Backward allocates gradient
// buffers (a forward-only tape, as in inference and evaluation, allocates
// none). One rule keeps product kernels from building temporaries: when a
// kernel's result is the first contribution to a node's gradient, the
// kernel writes it straight into the fresh, all-zero buffer; any later
// contribution, and any to a parameter, goes through a temporary that is
// then added (see accumKernel). Either way every element gets the bits of
// temporary-plus-add, and a second Backward accumulates into the buffers
// the first one left.
//
// A tape that holds no nodes yet may be forked, so that independent
// sub-graphs are recorded and differentiated on their own goroutines. The
// contract of a fork:
//   - Fork panics on a tape that already holds nodes, and on a fork (forks
//     do not nest);
//   - a fork records only its own nodes, Use leaves and Inputs, from one
//     goroutine at a time;
//   - the parent's later nodes may consume fork outputs.
//
// A parent and its forks compute what one plain tape would if every fork's
// nodes were recorded on it first, in Fork order, followed by the parent's
// own nodes. Backward on the parent unwinds the parent's nodes, then every
// fork concurrently. A fork does not write parameter gradients while it
// unwinds: it logs each write, and the parent replays the logs, last fork
// first and each in the order it was recorded. Every Param.Grad element
// therefore receives the same additions in the same order as on the single
// tape, and the bits match it.
//
// A leaf producer that cannot produce its value (a feature source whose
// rows sit behind a failed network fetch) records the failure with Fail;
// the tape's owner checks Err before using the forward pass's result.
type Tape struct {
	nodes []*Node
	forks []*Tape
	fork  bool
	log   []gradWrite // a fork's deferred parameter-gradient writes
	err   error
}

// gradWrite is one logged contribution to a parameter's gradient.
type gradWrite struct {
	p   *Param
	add func(g *tensor.Matrix)
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// Fail records err as the tape's failure; the first one recorded wins.
func (t *Tape) Fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Err reports the failure recorded on t with Fail, or nil.
func (t *Tape) Err() error { return t.err }

// Fork returns a child tape whose nodes precede the parent's in backward
// order; see Tape for the contract.
func (t *Tape) Fork() *Tape {
	if t.fork {
		panic("nn: Fork on a fork; forks do not nest")
	}
	if len(t.nodes) > 0 {
		panic("nn: Fork on a tape that already holds nodes")
	}
	f := &Tape{fork: true}
	t.forks = append(t.forks, f)
	return f
}

func (t *Tape) node(val *tensor.Matrix, needs bool, back func()) *Node {
	n := &Node{Val: val, needs: needs, back: back}
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

// accum applies one gradient contribution, add, to the gradient of the
// input n; it is the only way an op writes an input's gradient besides
// accumKernel. A parameter's gradient goes through accumParam. Any other
// buffer is allocated on first write, which is how a fork's output gains its
// buffer when the parent unwinds first.
func (t *Tape) accum(n *Node, add func(g *tensor.Matrix)) {
	if n.param != nil {
		t.accumParam(n.param, add)
		return
	}
	add(n.gradBuf())
	n.written = true
}

// accumKernel applies one gradient contribution that kernel computes by
// accumulating into an all-zero matrix of n's shape. The first contribution
// to a node's gradient finds its buffer freshly allocated, all +0: kernel
// writes into it, which leaves exactly what a temporary added to it would
// (a sum that starts at +0 is never −0, and +0 + s = s). Otherwise kernel
// fills a temporary and accum adds it, which keeps a parameter's write on a
// fork deferred and a second Backward accumulating.
func (t *Tape) accumKernel(n *Node, kernel func(dst *tensor.Matrix)) {
	if n.param == nil && !n.written {
		kernel(n.gradBuf())
		n.written = true
		return
	}
	tmp := tensor.New(n.Val.Rows, n.Val.Cols)
	kernel(tmp)
	t.accum(n, addMatrix(tmp))
}

// accumParam applies add to p.Grad, or on a fork logs it for the parent to
// replay in single-tape order.
func (t *Tape) accumParam(p *Param, add func(g *tensor.Matrix)) {
	if t.fork {
		t.log = append(t.log, gradWrite{p, add})
		return
	}
	add(p.Grad)
}

func (n *Node) gradBuf() *tensor.Matrix {
	if n.grad == nil {
		n.grad = tensor.New(n.Val.Rows, n.Val.Cols)
	}
	return n.grad
}

// unwind gives every node that needs one a gradient buffer and runs the
// tape's backward closures in reverse order.
func (t *Tape) unwind() {
	for _, n := range t.nodes {
		if n.needs {
			n.gradBuf()
		}
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.needs {
			n.back()
		}
	}
}

// Backward runs reverse-mode differentiation from a scalar (1x1) loss node.
// Called on a parent tape, it also differentiates the forks (see Tape).
func (t *Tape) Backward(loss *Node) {
	if t.fork {
		panic("nn: Backward on a fork; call it on the parent tape")
	}
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic("nn: Backward requires a scalar loss node")
	}
	if !loss.needs {
		return // loss does not depend on any parameter
	}
	loss.gradBuf().Data[0] = 1
	loss.written = true
	t.unwind()
	var wg sync.WaitGroup
	for _, f := range t.forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.unwind()
		}()
	}
	wg.Wait()
	for i := len(t.forks) - 1; i >= 0; i-- {
		for _, w := range t.forks[i].log {
			w.add(w.p.Grad)
		}
		t.forks[i].log = nil
	}
}
