package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates d(loss)/d(p[i]) by central differences, where
// buildLoss reconstructs the forward pass from scratch.
func numericalGrad(p *Param, i int, buildLoss func() float64) float64 {
	const eps = 1e-5
	orig := p.Val.Data[i]
	p.Val.Data[i] = orig + eps
	up := buildLoss()
	p.Val.Data[i] = orig - eps
	down := buildLoss()
	p.Val.Data[i] = orig
	return (up - down) / (2 * eps)
}

// checkGrads verifies analytic vs numerical gradients for all coordinates
// of the given params under the loss builder. build must create a fresh
// tape, run forward+backward, and return the loss value.
func checkGrads(t *testing.T, params []*Param, build func() float64, tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	build() // populates analytic grads
	analytic := make(map[*Param][]float64)
	for _, p := range params {
		analytic[p] = append([]float64(nil), p.Grad.Data...)
		p.ZeroGrad()
	}
	for _, p := range params {
		for i := range p.Val.Data {
			num := numericalGrad(p, i, func() float64 {
				for _, q := range params {
					q.ZeroGrad()
				}
				return build()
			})
			got := analytic[p][i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %g vs numerical %g", p.Name, i, got, num)
			}
		}
	}
}

func TestGradMatMulAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewParam("w", 3, 2, rng)
	b := NewParamZero("b", 1, 2)
	b.Val.GaussianInit(rng, 0.1)
	x := tensor.New(4, 3)
	x.GaussianInit(rng, 1)
	target := tensor.New(4, 2)
	target.GaussianInit(rng, 1)

	build := func() float64 {
		tp := NewTape()
		h := tp.AddBias(tp.MatMul(tp.Input(x), tp.Use(w)), tp.Use(b))
		loss := tp.MSE(h, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{w, b}, build, 1e-5)
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewParam("w", 2, 2, rng)
	x := tensor.New(3, 2)
	x.GaussianInit(rng, 1)
	target := tensor.New(3, 2)
	target.GaussianInit(rng, 0.3)

	for name, act := range map[string]func(*Tape, *Node) *Node{
		"sigmoid": (*Tape).Sigmoid,
		"tanh":    (*Tape).Tanh,
		"relu":    (*Tape).ReLU,
		"exp":     (*Tape).Exp,
	} {
		build := func() float64 {
			tp := NewTape()
			h := act(tp, tp.MatMul(tp.Input(x), tp.Use(w)))
			loss := tp.MSE(h, target)
			tp.Backward(loss)
			return loss.Val.Data[0]
		}
		t.Run(name, func(t *testing.T) { checkGrads(t, []*Param{w}, build, 1e-4) })
	}
}

func TestGradSoftmaxCE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewParam("w", 3, 4, rng)
	x := tensor.New(5, 3)
	x.GaussianInit(rng, 1)
	labels := []int{0, 1, 2, 3, 1}
	build := func() float64 {
		tp := NewTape()
		logits := tp.MatMul(tp.Input(x), tp.Use(w))
		loss := tp.SoftmaxCE(logits, labels)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{w}, build, 1e-5)
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewParam("w", 2, 1, rng)
	x := tensor.New(6, 2)
	x.GaussianInit(rng, 1)
	labels := tensor.FromSlice(6, 1, []float64{1, 0, 1, 1, 0, 0})
	build := func() float64 {
		tp := NewTape()
		logits := tp.MatMul(tp.Input(x), tp.Use(w))
		loss := tp.BCEWithLogits(logits, labels)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{w}, build, 1e-5)
}

func TestGradGatherConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	emb := NewParam("emb", 5, 3, rng)
	target := tensor.New(4, 6)
	target.GaussianInit(rng, 1)
	idx := []int{0, 2, 2, 4}
	build := func() float64 {
		tp := NewTape()
		g1 := tp.Gather(tp.Use(emb), idx)
		g2 := tp.Gather(tp.Use(emb), []int{1, 1, 3, 0})
		cat := tp.Concat(g1, g2) // 4 x 6
		sl := tp.SliceCols(cat, 1, 5)
		pad := tp.Concat(tp.SliceCols(cat, 0, 1), sl, tp.SliceCols(cat, 5, 6))
		loss := tp.MSE(pad, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{emb}, build, 1e-5)
}

func TestGradGroupReductionsAndRowOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	emb := NewParam("emb", 6, 3, rng)
	target := tensor.New(2, 3)
	target.GaussianInit(rng, 1)
	build := func() float64 {
		tp := NewTape()
		x := tp.Gather(tp.Use(emb), []int{0, 1, 2, 3, 4, 5})
		mean := tp.MeanGroupsOf(x, nil, 3) // 2 x 3
		norm := tp.RowL2Normalize(mean)
		loss := tp.MSE(norm, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{emb}, build, 1e-4)
}

func TestGradMaxGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := NewParam("emb", 4, 2, rng)
	target := tensor.New(2, 2)
	target.GaussianInit(rng, 1)
	build := func() float64 {
		tp := NewTape()
		x := tp.Gather(tp.Use(emb), []int{0, 1, 2, 3})
		mx := tp.MaxGroups(x, 2)
		loss := tp.MSE(mx, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{emb}, build, 1e-4)
}

func TestGradRowDotAndSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewParam("a", 4, 3, rng)
	b := NewParam("b", 4, 3, rng)
	labels := tensor.FromSlice(4, 1, []float64{1, 0, 1, 0})
	build := func() float64 {
		tp := NewTape()
		s := tp.RowDot(tp.Use(a), tp.Softmax(tp.Use(b)))
		loss := tp.BCEWithLogits(s, labels)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{a, b}, build, 1e-4)
}

func TestGradLSTMCell(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cell := NewLSTMCell("lstm", 3, 2, rng)
	x1 := tensor.New(2, 3)
	x1.GaussianInit(rng, 1)
	x2 := tensor.New(2, 3)
	x2.GaussianInit(rng, 1)
	target := tensor.New(2, 2)
	target.GaussianInit(rng, 0.5)
	build := func() float64 {
		tp := NewTape()
		h, c := cell.Step(tp, tp.Input(x1), nil, nil)
		h, _ = cell.Step(tp, tp.Input(x2), h, c)
		loss := tp.MSE(h, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, cell.Params(), build, 1e-4)
}

func TestGradSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	att := NewSelfAttention("att", 3, 4, rng)
	x := tensor.New(5, 3) // 5 items to attend over
	x.GaussianInit(rng, 1)
	target := tensor.New(1, 3)
	target.GaussianInit(rng, 0.5)
	build := func() float64 {
		tp := NewTape()
		_, pooled := att.Forward(tp, tp.Input(x))
		loss := tp.MSE(pooled, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, att.Params(), build, 1e-4)
}

func TestGradL2PenaltyAndNegSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewParam("a", 3, 2, rng)
	b := NewParam("b", 3, 2, rng)
	build := func() float64 {
		tp := NewTape()
		pos := tp.RowDot(tp.Use(a), tp.Use(b))
		neg := tp.RowDot(tp.Use(a), tp.Scale(tp.Use(b), -0.5))
		loss := tp.AddScalars(tp.NegSamplingLoss(pos, neg), tp.L2Penalty(0.01, a, b))
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{a, b}, build, 1e-4)
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	att := NewSelfAttention("att", 4, 3, rng)
	x := tensor.New(6, 4)
	x.GaussianInit(rng, 1)
	tp := NewTape()
	w, _ := att.Forward(tp, tp.Input(x))
	sum := 0.0
	for _, v := range w.Val.Data {
		if v < 0 {
			t.Fatalf("negative attention weight %f", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum = %f", sum)
	}
}

func TestMLPTrainsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mlp := NewMLP("xor", []int{2, 8, 1}, ActTanh, rng)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	opt := NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		tp := NewTape()
		out := mlp.Forward(tp, tp.Input(x))
		l := tp.BCEWithLogits(out, y)
		tp.Backward(l)
		opt.Step(mlp.Params())
		loss = l.Val.Data[0]
	}
	if loss > 0.1 {
		t.Fatalf("XOR did not converge: loss=%f", loss)
	}
}

func TestOptimizersDecreaseLoss(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"sgd":  func() Optimizer { return SGD{LR: 0.1} },
		"adam": func() Optimizer { return NewAdam(0.05) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			w := NewParam("w", 3, 1, rng)
			x := tensor.New(20, 3)
			x.GaussianInit(rng, 1)
			// Ground truth: y = x @ [1, -2, 0.5]
			truth := tensor.FromSlice(3, 1, []float64{1, -2, 0.5})
			y := tensor.MatMul(x, truth)
			opt := mk()
			first, last := 0.0, 0.0
			for i := 0; i < 100; i++ {
				tp := NewTape()
				pred := tp.MatMul(tp.Input(x), tp.Use(w))
				l := tp.MSE(pred, y)
				tp.Backward(l)
				opt.Step([]*Param{w})
				if i == 0 {
					first = l.Val.Data[0]
				}
				last = l.Val.Data[0]
			}
			if last >= first/2 {
				t.Fatalf("%s failed to reduce loss: %f -> %f", name, first, last)
			}
		})
	}
}

func TestClipGrad(t *testing.T) {
	p := NewParamZero("p", 1, 4)
	copy(p.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	ClipGrad([]*Param{p}, 1.0)
	if math.Abs(p.Grad.Norm2()-1.0) > 1e-9 {
		t.Fatalf("clipped norm = %f", p.Grad.Norm2())
	}
	// Below the cap: untouched.
	copy(p.Grad.Data, []float64{0.1, 0, 0, 0})
	ClipGrad([]*Param{p}, 1.0)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("grad below cap must be unchanged")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	n := tp.Input(tensor.New(2, 2))
	tp.Backward(n)
}

func TestBackwardConstantLossNoop(t *testing.T) {
	tp := NewTape()
	loss := tp.MeanAll(tp.Input(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})))
	tp.Backward(loss) // must not panic even though nothing requires grad
	if loss.Val.Data[0] != 2.5 {
		t.Fatalf("loss = %f", loss.Val.Data[0])
	}
}

func TestGradScatterMean(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	emb := NewParam("emb", 5, 3, rng)
	target := tensor.New(2, 3)
	target.GaussianInit(rng, 1)
	rows := []int{0, 1, 1, 0, 1} // variable group sizes: bucket 0 has 2, bucket 1 has 3
	build := func() float64 {
		tp := NewTape()
		x := tp.Gather(tp.Use(emb), []int{0, 1, 2, 3, 4})
		sm := tp.ScatterMean(x, rows, 2)
		loss := tp.MSE(sm, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{emb}, build, 1e-5)
}

func TestScatterMeanEmptyBucket(t *testing.T) {
	tp := NewTape()
	x := tp.Input(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	sm := tp.ScatterMean(x, []int{0, 0}, 3)
	if sm.Val.Rows != 3 {
		t.Fatalf("rows = %d", sm.Val.Rows)
	}
	if sm.Val.At(0, 0) != 2 || sm.Val.At(0, 1) != 3 {
		t.Fatalf("bucket 0 = %v", sm.Val.Row(0))
	}
	if sm.Val.At(1, 0) != 0 || sm.Val.At(2, 1) != 0 {
		t.Fatal("empty buckets must stay zero")
	}
}

func TestGradTransposeAndDivScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewParam("w", 3, 2, rng)
	target := tensor.New(2, 3)
	target.GaussianInit(rng, 1)
	build := func() float64 {
		tp := NewTape()
		x := tp.Use(w)
		xt := tp.TransposeNode(x) // 2 x 3
		s := tp.SumAll(tp.Exp(x)) // positive scalar
		y := tp.DivScalarNode(xt, s)
		loss := tp.MSE(y, target)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	checkGrads(t, []*Param{w}, build, 1e-4)
}
