package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// forkModel is the shared parameter set the fork cases draw on; every case
// feeds parameters straight into the op under test, so each op's
// parameter-gradient write is what the forks log and replay.
type forkModel struct {
	p, q, r, s, bias *Param
	dense            *Dense
	mlp              *MLP
	lstm             *LSTMCell
	attn             *SelfAttention
}

func newForkModel() *forkModel {
	rng := rand.New(rand.NewSource(11))
	m := &forkModel{
		p:     NewParam("p", 6, 4, rng),
		q:     NewParam("q", 6, 4, rng),
		r:     NewParam("r", 4, 4, rng),
		s:     NewParamGaussian("s", 1, 1, 0.5, rng),
		bias:  NewParamGaussian("bias", 1, 4, 0.5, rng),
		dense: NewDense("dense", 4, 3, ActTanh, rng),
		mlp:   NewMLP("mlp", []int{4, 5, 2}, ActReLU, rng),
		lstm:  NewLSTMCell("lstm", 4, 3, rng),
		attn:  NewSelfAttention("attn", 4, 3, rng),
	}
	m.s.Val.Data[0] += 2 // a divisor well away from zero
	return m
}

func (m *forkModel) params() []*Param {
	ps := []*Param{m.p, m.q, m.r, m.s, m.bias}
	ps = append(ps, m.dense.Params()...)
	ps = append(ps, m.mlp.Params()...)
	ps = append(ps, m.lstm.Params()...)
	return append(ps, m.attn.Params()...)
}

// forkInput is sub-graph i's rows x cols constant input.
func forkInput(i, rows, cols int) *tensor.Matrix {
	x := tensor.New(rows, cols)
	x.GaussianInit(rand.New(rand.NewSource(int64(100+i))), 1)
	return x
}

// forkCases builds, per op, sub-graph i of three that share m's parameters.
func forkCases(m *forkModel) map[string]func(t *Tape, i int) *Node {
	return map[string]func(t *Tape, i int) *Node{
		"MatMul": func(t *Tape, i int) *Node {
			return t.MatMul(t.MatMul(t.Input(forkInput(i, 3, 6)), t.Use(m.p)), t.Use(m.r))
		},
		"Add": func(t *Tape, i int) *Node {
			return t.Add(t.Use(m.p), t.Add(t.Use(m.q), t.Input(forkInput(i, 6, 4))))
		},
		"AddBias": func(t *Tape, i int) *Node {
			return t.AddBias(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))), t.Use(m.bias))
		},
		"Sub": func(t *Tape, i int) *Node {
			return t.Sub(t.Use(m.p), t.Mul(t.Use(m.q), t.Input(forkInput(i, 6, 4))))
		},
		"Mul": func(t *Tape, i int) *Node {
			return t.Mul(t.Use(m.p), t.Mul(t.Use(m.q), t.Input(forkInput(i, 6, 4))))
		},
		"Scale": func(t *Tape, i int) *Node {
			return t.Scale(t.Use(m.p), float64(i)+0.5)
		},
		"Activations": func(t *Tape, i int) *Node {
			x := t.Add(t.Use(m.p), t.Input(forkInput(i, 6, 4)))
			return t.Concat(t.Sigmoid(x), t.Tanh(x), t.ReLU(x), t.Exp(t.Scale(x, 0.3)))
		},
		"Softmax": func(t *Tape, i int) *Node {
			return t.Softmax(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))))
		},
		"ConcatSliceCols": func(t *Tape, i int) *Node {
			c := t.Concat(t.Use(m.p), t.Input(forkInput(i, 6, 2)), t.Use(m.q))
			return t.Mul(t.SliceCols(c, 3, 9), t.Input(forkInput(i, 6, 6)))
		},
		"Gather": func(t *Tape, i int) *Node {
			return t.Mul(t.Gather(t.Use(m.p), []int{i, 5, i, 0, 2}), t.Input(forkInput(i, 5, 4)))
		},
		"MeanRows": func(t *Tape, i int) *Node {
			return t.MeanRows(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))))
		},
		"MeanGroupsOf": func(t *Tape, i int) *Node {
			p := t.Use(m.p)
			return t.Concat(t.MeanGroupsOf(p, nil, 3), t.MeanGroupsOf(p, []int{i, 4, 4, 1, 5, i}, 3))
		},
		"MaxGroups": func(t *Tape, i int) *Node {
			return t.MaxGroups(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))), 2)
		},
		"ScatterMean": func(t *Tape, i int) *Node {
			return t.ScatterMean(t.Use(m.p), []int{0, 2, i % 3, 2, 0, 1}, 4)
		},
		"SumAllMeanAll": func(t *Tape, i int) *Node {
			x := t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4)))
			return t.Add(t.SumAll(x), t.MeanAll(t.Use(m.q)))
		},
		"RowDot": func(t *Tape, i int) *Node {
			return t.Add(t.RowDot(t.Use(m.p), t.Use(m.q)), t.RowDot(t.Use(m.p), t.Input(forkInput(i, 6, 4))))
		},
		"RowL2Normalize": func(t *Tape, i int) *Node {
			x := t.Concat(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))), t.Input(tensor.New(6, 1)))
			return t.RowL2Normalize(t.Concat(x, t.Use(m.q)))
		},
		"TransposeDivScalar": func(t *Tape, i int) *Node {
			return t.DivScalarNode(t.TransposeNode(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4)))), t.Use(m.s))
		},
		"Dense": func(t *Tape, i int) *Node {
			return m.dense.Forward(t, t.Add(t.Use(m.r), t.Input(forkInput(i, 4, 4))))
		},
		"MLP": func(t *Tape, i int) *Node {
			return m.mlp.Forward(t, t.Input(forkInput(i, 5, 4)))
		},
		"LSTMCell": func(t *Tape, i int) *Node {
			h, c := m.lstm.Step(t, t.Input(forkInput(i, 2, 4)), nil, nil)
			h, _ = m.lstm.Step(t, t.Gather(t.Use(m.r), []int{i, 3}), h, c)
			return h
		},
		"SelfAttention": func(t *Tape, i int) *Node {
			w, pooled := m.attn.Forward(t, t.Add(t.Use(m.p), t.Input(forkInput(i, 6, 4))))
			return t.Concat(t.TransposeNode(w), pooled)
		},
		"MSE": func(t *Tape, i int) *Node {
			return t.MSE(t.Use(m.p), forkInput(i, 6, 4))
		},
		"BCEWithLogitsNegSampling": func(t *Tape, i int) *Node {
			pos := t.RowDot(t.Use(m.p), t.Input(forkInput(i, 6, 4)))
			neg := t.RowDot(t.Use(m.q), t.Input(forkInput(i+3, 6, 4)))
			labels := tensor.New(6, 1)
			labels.Data[i] = 1
			return t.AddScalars(t.NegSamplingLoss(pos, neg), t.BCEWithLogits(pos, labels))
		},
		"SoftmaxCE": func(t *Tape, i int) *Node {
			return t.SoftmaxCE(t.Mul(t.Use(m.p), t.Input(forkInput(i, 6, 4))), []int{0, 1, 2, 3, i, 0})
		},
		"L2Penalty": func(t *Tape, i int) *Node {
			return t.Add(t.L2Penalty(0.1*float64(i+1), m.p, m.bias), t.SumAll(t.Use(m.s)))
		},
	}
}

// forkStep builds the case's three sub-graphs, on three forks from three
// goroutines or in fork order on one plain tape, closes them with a loss
// recorded on the parent (which uses a parameter of its own, so the parent
// writes parameter gradients too) and runs Backward. It returns the loss.
func forkStep(m *forkModel, build func(t *Tape, i int) *Node, forked bool) float64 {
	for _, p := range m.params() {
		p.ZeroGrad()
	}
	t := NewTape()
	var h [3]*Node
	if forked {
		var wg sync.WaitGroup
		for i := range h {
			f := t.Fork()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h[i] = build(f, i)
			}()
		}
		wg.Wait()
	} else {
		for i := range h {
			h[i] = build(t, i)
		}
	}
	terms := []*Node{t.L2Penalty(0.05, m.p, m.q)}
	for i, n := range h {
		if !n.needs {
			panic("fork case output depends on no parameter")
		}
		w := forkInput(10+i, n.Val.Rows, n.Val.Cols)
		terms = append(terms, t.SumAll(t.Mul(n, t.Input(w))))
	}
	loss := t.AddScalars(terms...)
	t.Backward(loss)
	return loss.Val.Data[0]
}

// Three sub-graphs differentiated on three concurrent forks leave every
// parameter gradient bit-identical to the same sub-graphs on one tape, for
// every differentiable op and layer.
func TestForkMatchesSingleTapeBits(t *testing.T) {
	m := newForkModel()
	for name, build := range forkCases(m) {
		want := forkStep(m, build, false)
		var wantGrads [][]float64
		for _, p := range m.params() {
			wantGrads = append(wantGrads, append([]float64(nil), p.Grad.Data...))
		}
		got := forkStep(m, build, true)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: forked loss %v, single tape %v", name, got, want)
		}
		for k, p := range m.params() {
			for j, g := range p.Grad.Data {
				if math.Float64bits(g) != math.Float64bits(wantGrads[k][j]) {
					t.Fatalf("%s: %s.Grad[%d] forked %v, single tape %v", name, p.Name, j, g, wantGrads[k][j])
				}
			}
		}
	}
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestForkContractPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("p", 2, 2, rng)

	used := NewTape()
	used.Use(p)
	expectPanic(t, "Fork on a tape holding nodes", func() { used.Fork() })

	parent := NewTape()
	f := parent.Fork()
	expectPanic(t, "Fork on a fork", func() { f.Fork() })
	loss := f.SumAll(f.Use(p))
	expectPanic(t, "Backward on a fork", func() { f.Backward(loss) })

	// The parent may differentiate a loss recorded on a fork.
	parent.Backward(loss)
	for i, g := range p.Grad.Data {
		if g != 1 {
			t.Fatalf("p.Grad[%d] = %v, want 1", i, g)
		}
	}
}

// A max-pool group in which no element beats -Inf sends its gradient to the
// group's own first row, not to row 0 of the whole input.
func TestMaxGroupsUnbeatenGroupStaysInGroup(t *testing.T) {
	p := NewParamZero("x", 4, 1)
	copy(p.Val.Data, []float64{1, 2, math.NaN(), math.NaN()})
	tp := NewTape()
	out := tp.MaxGroups(tp.Use(p), 2)
	tp.Backward(tp.SumAll(tp.Mul(out, tp.Input(tensor.FromSlice(2, 1, []float64{0, 1})))))
	want := []float64{0, 0, 1, 0}
	for i, g := range p.Grad.Data {
		if g != want[i] {
			t.Fatalf("input gradient %v, want %v", p.Grad.Data, want)
		}
	}
}

// adamRef is the serial per-parameter Adam update the split Step must match.
func adamRef(params []*Param, m, v map[*Param][]float64, step int, lr float64) {
	b1, b2, eps := 0.9, 0.999, 1e-8 // float64 variables, as in Adam: 1-b1 rounds
	bc1 := 1 - math.Pow(b1, float64(step))
	bc2 := 1 - math.Pow(b2, float64(step))
	for _, p := range params {
		if m[p] == nil {
			m[p] = make([]float64, len(p.Val.Data))
			v[p] = make([]float64, len(p.Val.Data))
		}
		md, vd := m[p], v[p]
		for i, g := range p.Grad.Data {
			md[i] = b1*md[i] + (1-b1)*g
			vd[i] = b2*vd[i] + (1-b2)*g*g
			p.Val.Data[i] -= lr * (md[i] / bc1) / (math.Sqrt(vd[i]/bc2) + eps)
		}
		p.ZeroGrad()
	}
}

// Adam's range split across goroutines, which cuts through parameters,
// changes no bit of the update.
func TestAdamSplitMatchesSerialBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	mk := func() []*Param {
		rng := rand.New(rand.NewSource(5))
		return []*Param{NewParam("a", 7, 5, rng), NewParam("b", 1, 3, rng), NewParam("c", 11, 4, rng)}
	}
	got, want := mk(), mk()
	opt := NewAdam(0.01)
	m, v := map[*Param][]float64{}, map[*Param][]float64{}
	for step := 1; step <= 5; step++ {
		rng := rand.New(rand.NewSource(int64(step)))
		for k := range got {
			got[k].Grad.GaussianInit(rng, 1)
			copy(want[k].Grad.Data, got[k].Grad.Data)
		}
		opt.Step(got)
		adamRef(want, m, v, step, 0.01)
	}
	for k := range got {
		for i, x := range got[k].Val.Data {
			if math.Float64bits(x) != math.Float64bits(want[k].Val.Data[i]) {
				t.Fatalf("%s[%d] = %v, serial %v", got[k].Name, i, x, want[k].Val.Data[i])
			}
		}
		for _, g := range got[k].Grad.Data {
			if g != 0 {
				t.Fatalf("%s gradient not cleared", got[k].Name)
			}
		}
	}
}
