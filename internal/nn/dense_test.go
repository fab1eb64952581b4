package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// denseRef is the unfused layer Dense must reproduce: Concat of the blocks,
// MatMul, AddBias and the activation op, one node each.
func denseRef(t *Tape, d *Dense, xs ...*Node) *Node {
	x := xs[0]
	if len(xs) > 1 {
		x = t.Concat(xs...)
	}
	h := t.AddBias(t.MatMul(x, t.Use(d.W)), t.Use(d.B))
	switch d.Act {
	case ActReLU:
		return t.ReLU(h)
	case ActTanh:
		return t.Tanh(h)
	}
	return h
}

// denseConst is a rows x cols constant whose rows 1 and 4 are all zero.
func denseConst(seed int64, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.GaussianInit(rand.New(rand.NewSource(seed)), 1)
	clear(m.Row(1))
	clear(m.Row(4))
	return m
}

// denseCase is a layer input shape: blocks builds sub-graph i's input
// blocks from the tables p (6x4) and q (6x2); reuse has a loss term read
// the first block after the layer has, so the layer's write to that block's
// gradient is not its first.
type denseCase struct {
	blocks func(t *Tape, p, q *Param, i int) []*Node
	in     int
	reuse  bool
}

// masked is table p's rows times a constant with two zero rows: an input
// that needs a gradient, whose zero rows leave a ReLU unit to its bias.
func masked(t *Tape, p *Param, seed int64) *Node {
	return t.Mul(t.Use(p), t.Input(denseConst(seed, p.Val.Rows, p.Val.Cols)))
}

var denseCases = map[string]denseCase{
	"one block": {in: 4, blocks: func(t *Tape, p, _ *Param, i int) []*Node {
		return []*Node{masked(t, p, int64(i))}
	}},
	"two blocks": {in: 6, blocks: func(t *Tape, p, q *Param, i int) []*Node {
		return []*Node{masked(t, p, int64(i)), masked(t, q, int64(i+3))}
	}},
	"second consumer": {in: 6, reuse: true, blocks: func(t *Tape, p, q *Param, i int) []*Node {
		return []*Node{masked(t, p, int64(i)), masked(t, q, int64(i+3))}
	}},
	"one node twice": {in: 8, blocks: func(t *Tape, p, _ *Param, i int) []*Node {
		x := masked(t, p, int64(i))
		return []*Node{x, x}
	}},
	"parameter leaves": {in: 6, reuse: true, blocks: func(t *Tape, p, q *Param, _ int) []*Node {
		return []*Node{t.Use(p), t.Use(q)}
	}},
}

// denseRun is what one run of a case produced: the loss, each sub-graph's
// layer output and input-block gradients, and every parameter's gradient.
type denseRun struct {
	loss  float64
	mats  []*tensor.Matrix
	names []string
}

func (r *denseRun) add(name string, m *tensor.Matrix) {
	r.names = append(r.names, name)
	r.mats = append(r.mats, m)
}

// runDense builds three sub-graphs of case c over fresh parameters (one
// tape, or three forks closed on the parent), through Dense or denseRef,
// and runs Backward.
func runDense(c denseCase, act Activation, fused, forked bool) *denseRun {
	rng := rand.New(rand.NewSource(5))
	d := NewDense("d", c.in, 3, act, rng)
	d.B.Val.GaussianInit(rng, 1) // some units' biases are negative
	p, q := NewParam("p", 6, 4, rng), NewParam("q", 6, 2, rng)

	type sub struct {
		out, loss *Node
		xs        []*Node
	}
	var subs [3]sub
	build := func(t *Tape, i int) {
		xs := c.blocks(t, p, q, i)
		var out *Node
		if fused {
			out = d.Forward(t, xs...)
		} else {
			out = denseRef(t, d, xs...)
		}
		loss := t.SumAll(t.Mul(out, t.Input(denseConst(int64(10+i), 6, 3))))
		if c.reuse {
			loss = t.Add(loss, t.SumAll(t.Tanh(xs[0])))
		}
		subs[i] = sub{out, loss, xs}
	}
	t := NewTape()
	if forked {
		var wg sync.WaitGroup
		for i := range subs {
			f := t.Fork()
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(f, i)
			}()
		}
		wg.Wait()
	} else {
		for i := range subs {
			build(t, i)
		}
	}
	loss := t.Add(t.Add(subs[0].loss, subs[1].loss), subs[2].loss)
	t.Backward(loss)

	r := &denseRun{loss: loss.Val.Data[0]}
	for i, s := range subs {
		r.add(fmt.Sprintf("sub-graph %d output", i), s.out.Val)
		for k, x := range s.xs {
			if x.param == nil {
				r.add(fmt.Sprintf("sub-graph %d block %d gradient", i, k), x.Grad())
			}
		}
	}
	for _, pm := range []*Param{d.W, d.B, p, q} {
		r.add(pm.Name+" gradient", pm.Grad)
	}
	return r
}

// TestDenseMatchesUnfusedBits: the one-node Dense layer gives the bits of
// MatMul, AddBias and the activation over Concat of its blocks — forward
// values, input gradients and every parameter gradient — for each
// activation, one or two blocks, a block read again after the layer (its
// gradient is not fresh when the layer writes), one node as both blocks,
// parameter leaves as blocks, all-zero input rows (dead ReLU units), and on
// a forked tape.
func TestDenseMatchesUnfusedBits(t *testing.T) {
	for name, c := range denseCases {
		for _, act := range []Activation{ActIdentity, ActReLU, ActTanh} {
			for _, forked := range []bool{false, true} {
				label := fmt.Sprintf("%s/act=%d/forked=%v", name, act, forked)
				got, want := runDense(c, act, true, forked), runDense(c, act, false, forked)
				if math.Float64bits(got.loss) != math.Float64bits(want.loss) {
					t.Fatalf("%s: loss %v, want %v", label, got.loss, want.loss)
				}
				for k, m := range want.mats {
					bitsEqual(t, label+": "+want.names[k], got.mats[k], m)
				}
			}
		}
	}
}
