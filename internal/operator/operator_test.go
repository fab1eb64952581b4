package operator

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func allAggregators(d, out int, rng *rand.Rand) []Aggregator {
	return []Aggregator{
		NewMeanAggregator("m", d, out, rng),
		NewSumAggregator("s", d, out, rng),
		NewMaxPoolAggregator("p", d, out, rng),
		NewLSTMAggregator("l", d, out, rng),
	}
}

func TestAggregatorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const b, k, d, out = 3, 4, 5, 6
	x := tensor.New(b*k, d)
	x.GaussianInit(rng, 1)
	for _, agg := range allAggregators(d, out, rng) {
		tp := nn.NewTape()
		y := agg.Aggregate(tp, tp.Input(x), nil, k)
		if y.Val.Rows != b || y.Val.Cols != out {
			t.Fatalf("%s: shape %dx%d want %dx%d", agg.Name(), y.Val.Rows, y.Val.Cols, b, out)
		}
		if agg.OutDim() != out {
			t.Fatalf("%s: OutDim %d", agg.Name(), agg.OutDim())
		}
		if len(agg.Params()) == 0 {
			t.Fatalf("%s: no params", agg.Name())
		}
	}
}

func TestAggregatorsTrain(t *testing.T) {
	// Each aggregator must be able to fit a tiny regression target, proving
	// forward+backward are wired.
	rng := rand.New(rand.NewSource(2))
	const b, k, d, out = 4, 3, 4, 2
	x := tensor.New(b*k, d)
	x.GaussianInit(rng, 1)
	target := tensor.New(b, out)
	target.GaussianInit(rng, 0.3)
	for _, agg := range allAggregators(d, out, rng) {
		opt := nn.NewAdam(0.02)
		first, last := 0.0, 0.0
		for i := 0; i < 150; i++ {
			tp := nn.NewTape()
			y := agg.Aggregate(tp, tp.Input(x), nil, k)
			loss := tp.MSE(y, target)
			tp.Backward(loss)
			opt.Step(agg.Params())
			if i == 0 {
				first = loss.Val.Data[0]
			}
			last = loss.Val.Data[0]
		}
		if last >= first*0.9 {
			t.Fatalf("%s did not learn: %f -> %f", agg.Name(), first, last)
		}
	}
}

func TestMeanAggregatorPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const b, k, d, out = 1, 4, 3, 5
	agg := NewMeanAggregator("m", d, out, rng)
	x := tensor.New(b*k, d)
	x.GaussianInit(rng, 1)
	perm := tensor.New(b*k, d)
	order := []int{2, 0, 3, 1}
	for i, r := range order {
		copy(perm.Row(i), x.Row(r))
	}
	tp := nn.NewTape()
	y1 := agg.Aggregate(tp, tp.Input(x), nil, k)
	y2 := agg.Aggregate(tp, tp.Input(perm), nil, k)
	for i := range y1.Val.Data {
		if math.Abs(y1.Val.Data[i]-y2.Val.Data[i]) > 1e-9 {
			t.Fatal("mean aggregator must be permutation invariant")
		}
	}
}

func TestMaxPoolPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k, d, out = 4, 3, 5
	agg := NewMaxPoolAggregator("p", d, out, rng)
	x := tensor.New(k, d)
	x.GaussianInit(rng, 1)
	perm := tensor.New(k, d)
	for i, r := range []int{3, 1, 0, 2} {
		copy(perm.Row(i), x.Row(r))
	}
	tp := nn.NewTape()
	y1 := agg.Aggregate(tp, tp.Input(x), nil, k)
	y2 := agg.Aggregate(tp, tp.Input(perm), nil, k)
	for i := range y1.Val.Data {
		if math.Abs(y1.Val.Data[i]-y2.Val.Data[i]) > 1e-9 {
			t.Fatal("max-pool aggregator must be permutation invariant")
		}
	}
}

func TestLSTMAggregatorOrderSensitive(t *testing.T) {
	// The LSTM aggregator is deliberately order-sensitive (the paper uses
	// the sampler's random order); verify it actually distinguishes orders.
	rng := rand.New(rand.NewSource(5))
	const k, d, out = 3, 3, 4
	agg := NewLSTMAggregator("l", d, out, rng)
	x := tensor.New(k, d)
	x.GaussianInit(rng, 2)
	rev := tensor.New(k, d)
	for i := 0; i < k; i++ {
		copy(rev.Row(i), x.Row(k-1-i))
	}
	tp := nn.NewTape()
	y1 := agg.Aggregate(tp, tp.Input(x), nil, k)
	y2 := agg.Aggregate(tp, tp.Input(rev), nil, k)
	diff := 0.0
	for i := range y1.Val.Data {
		diff += math.Abs(y1.Val.Data[i] - y2.Val.Data[i])
	}
	if diff < 1e-9 {
		t.Fatal("LSTM aggregator produced identical output for reversed input")
	}
}

func TestCombiners(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const b, d, out = 3, 4, 5
	self := tensor.New(b, d)
	self.GaussianInit(rng, 1)
	neigh := tensor.New(b, d)
	neigh.GaussianInit(rng, 1)

	sum := NewSumCombiner("sc", d, out, rng)
	cat := NewConcatCombiner("cc", d, d, out, rng)
	for _, c := range []Combiner{sum, cat} {
		tp := nn.NewTape()
		y := c.Combine(tp, tp.Input(self), tp.Input(neigh))
		if y.Val.Rows != b || y.Val.Cols != out {
			t.Fatalf("%s shape %dx%d", c.Name(), y.Val.Rows, y.Val.Cols)
		}
		if c.OutDim() != out || len(c.Params()) != 2 {
			t.Fatalf("%s metadata", c.Name())
		}
	}
}

func TestSumCombinerIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const b, d, out = 2, 3, 3
	c := NewSumCombiner("sc", d, out, rng)
	a := tensor.New(b, d)
	a.GaussianInit(rng, 1)
	bb := tensor.New(b, d)
	bb.GaussianInit(rng, 1)
	tp := nn.NewTape()
	y1 := c.Combine(tp, tp.Input(a), tp.Input(bb))
	y2 := c.Combine(tp, tp.Input(bb), tp.Input(a))
	for i := range y1.Val.Data {
		if math.Abs(y1.Val.Data[i]-y2.Val.Data[i]) > 1e-9 {
			t.Fatal("sum combiner must be symmetric in its inputs")
		}
	}
}

// TestAggregateByIndexMatchesGathered: reading the neighbor rows through
// idx gives the bits of aggregating an explicitly gathered matrix, forward
// and in the gradients of the source rows and of the aggregator's params.
func TestAggregateByIndexMatchesGathered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, b, k, d, out = 5, 3, 4, 6, 3
	idx := make([]int, b*k)
	for i := range idx {
		idx[i] = rng.Intn(rows) // repeats
	}
	for _, agg := range allAggregators(d, out, rng) {
		src := nn.NewParam("src", rows, d, rng)
		run := func(byIndex bool) []float64 {
			for _, p := range append(agg.Params(), src) {
				p.ZeroGrad()
			}
			tp := nn.NewTape()
			var y *nn.Node
			if byIndex {
				y = agg.Aggregate(tp, tp.Use(src), idx, k)
			} else {
				y = agg.Aggregate(tp, tp.Gather(tp.Use(src), idx), nil, k)
			}
			tp.Backward(tp.SumAll(tp.Tanh(y)))
			bits := append([]float64(nil), y.Val.Data...)
			for _, p := range append(agg.Params(), src) {
				bits = append(bits, p.Grad.Data...)
			}
			return bits
		}
		want, got := run(false), run(true)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d = %v, want %v", agg.Name(), i, got[i], want[i])
			}
		}
	}
}
