package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// meanGroupsRef is the reference grouped mean over consecutive groups of k
// rows, run after an explicit Gather. MeanGroupsOf must reproduce the pair
// bit for bit, forward and backward.
func meanGroupsRef(t *Tape, a *Node, k int) *Node {
	b := a.Val.Rows / k
	val := tensor.New(b, a.Val.Cols)
	for g := 0; g < b; g++ {
		orow := val.Row(g)
		for r := 0; r < k; r++ {
			for j, v := range a.Val.Row(g*k + r) {
				orow[j] += v
			}
		}
		for j := range orow {
			orow[j] /= float64(k)
		}
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		inv := 1 / float64(k)
		out.back = func() {
			for g := 0; g < b; g++ {
				grow := out.grad.Row(g)
				for r := 0; r < k; r++ {
					arow := a.grad.Row(g*k + r)
					for j, gv := range grow {
						arow[j] += float64(gv * inv)
					}
				}
			}
		}
	}
	return out
}

// reluRows is a random table in which some rows and entries are exact
// zeros, as after a ReLU.
func reluRows(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			continue
		}
		for j := range m.Row(i) {
			if rng.Intn(3) != 0 {
				m.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func bitsEqual(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMeanGroupsOfMatchesGatherThenMean runs the fused op and the
// reference Gather→mean on the same random inputs (empty tables, single
// columns, repeated indices, zero rows), then backpropagates the same
// upstream gradient through both and compares every bit.
func TestMeanGroupsOfMatchesGatherThenMean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ rows, cols, groups, k int }{
		{0, 3, 0, 2}, {4, 1, 3, 2}, {1, 5, 4, 3}, {6, 4, 5, 5}, {30, 48, 40, 5}, {9, 32, 7, 1},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%d/%dx%d", c.rows, c.cols, c.groups, c.k)
		src := reluRows(rng, c.rows, c.cols)
		idx := make([]int, c.groups*c.k)
		for i := range idx {
			idx[i] = rng.Intn(c.rows) // draws repeat: c.groups*c.k > c.rows
		}
		upstream := reluRows(rng, c.groups, c.cols)

		run := func(fused bool) (val, grad *tensor.Matrix) {
			p := &Param{Name: "src", Val: src, Grad: tensor.New(c.rows, c.cols)}
			tp := NewTape()
			a := tp.Use(p)
			var m *Node
			if fused {
				m = tp.MeanGroupsOf(a, idx, c.k)
			} else {
				m = meanGroupsRef(tp, tp.Gather(a, idx), c.k)
			}
			tp.Backward(tp.SumAll(tp.Mul(m, tp.Input(upstream))))
			return m.Val, p.Grad
		}
		wantVal, wantGrad := run(false)
		gotVal, gotGrad := run(true)
		bitsEqual(t, name+" forward", gotVal, wantVal)
		bitsEqual(t, name+" backward", gotGrad, wantGrad)
	}

	// idx == nil groups consecutive rows, as the reference does.
	src := reluRows(rng, 12, 5)
	tp := NewTape()
	bitsEqual(t, "nil idx", tp.MeanGroupsOf(tp.Input(src), nil, 4).Val, meanGroupsRef(tp, tp.Input(src), 4).Val)
}

func TestGradMeanGroupsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	emb := NewParam("emb", 5, 3, rng)
	target := tensor.New(3, 3)
	target.GaussianInit(rng, 1)
	idx := []int{4, 0, 0, 2, 1, 4} // repeated rows, row 3 unused
	build := func() float64 {
		tp := NewTape()
		mean := tp.MeanGroupsOf(tp.Use(emb), idx, 2) // 3 x 3
		loss := tp.MSE(tp.Tanh(mean), target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{emb}, build, 1e-4)
}

// TestForwardOnlyTapeAllocatesNoGradients: gradient buffers appear when
// Backward runs, and a second Backward accumulates into the ones it has.
func TestForwardOnlyTapeAllocatesNoGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewParam("w", 3, 2, rng)
	x := tensor.New(4, 3)
	x.GaussianInit(rng, 1)
	tp := NewTape()
	h := tp.Tanh(tp.MatMul(tp.Input(x), tp.Use(w)))
	loss := tp.MeanAll(h) // 8 elements: every gradient below is exact
	for _, n := range tp.nodes {
		if n.param == nil && n.grad != nil {
			t.Fatal("forward pass allocated a gradient buffer")
		}
	}
	tp.Backward(loss)
	hg := h.Grad()
	if hg == nil || hg.Data[0] != 0.125 {
		t.Fatalf("after Backward: h.grad = %v, want 0.125 everywhere", hg)
	}
	// The second pass seeds the loss again and adds 2/8 through the
	// already-accumulated sum node: 1/8 + 2/8.
	tp.Backward(loss)
	if h.Grad() != hg || hg.Data[0] != 0.375 {
		t.Fatalf("second Backward: h.grad = %v, want the same buffer holding 0.375", h.Grad())
	}
}

// BenchmarkMeanGroupsOf is the hop-1 mean AGGREGATE of the train workload:
// ~3k vertices average 5 sampled neighbours' 48-wide rows of a
// distinct-vertex table, forward and backward.
func BenchmarkMeanGroupsOf(b *testing.B) {
	const rows, cols, groups, k = 3000, 48, 3000, 5
	rng := rand.New(rand.NewSource(1))
	p := NewParam("h", rows, cols, rng)
	idx := make([]int, groups*k)
	for i := range idx {
		idx[i] = rng.Intn(rows)
	}
	b.ReportAllocs()
	for b.Loop() {
		tp := NewTape()
		tp.Backward(tp.SumAll(tp.MeanGroupsOf(tp.Use(p), idx, k)))
	}
}

// BenchmarkAdamStep is one Adam step over the train workload's parameters:
// the learned table of its 8.8k vertices and the dense layers of a
// two-hop GraphSAGE encoder at dimension 32.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := []*Param{
		NewParam("table", 8800, 32, rng),
		NewParam("w1", 80, 32, rng), NewParamZero("b1", 1, 32),
		NewParam("w2", 64, 32, rng), NewParamZero("b2", 1, 32),
	}
	grads := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		grads[i] = tensor.New(p.Val.Rows, p.Val.Cols)
		grads[i].GaussianInit(rng, 1e-3)
	}
	opt := NewAdam(0.02)
	b.ReportAllocs()
	for b.Loop() {
		for i, p := range params {
			copy(p.Grad.Data, grads[i].Data) // the step clears the gradients
		}
		opt.Step(params)
	}
}
