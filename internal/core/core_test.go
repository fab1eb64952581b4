package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

func newEncoder(g *graph.Graph, feat FeatureSource, dims []int, materialize bool, rng *rand.Rand) *Encoder {
	e := &Encoder{Features: feat, Materialize: materialize}
	in := feat.Dim()
	for k, out := range dims {
		e.Agg = append(e.Agg, operator.NewMeanAggregator("agg", in, out, rng))
		e.Comb = append(e.Comb, operator.NewConcatCombiner("comb", in, out, out, rng))
		_ = k
		in = out
	}
	return e
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	b.AddVertices(0, n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.ID(v), graph.ID((v+1)%n), 0, 1)
	}
	return b.Finalize()
}

func TestAttrFeaturesPadTruncate(t *testing.T) {
	s := graph.MustSchema([]string{"a", "b"}, []string{"e"})
	b := graph.NewBuilder(s, true)
	v0 := b.AddVertex(0, []float64{1, 2, 3, 4})
	v1 := b.AddVertex(1, []float64{5})
	b.AddEdge(v0, v1, 0, 1)
	g := b.Finalize()
	f := NewAttrFeatures(g, 2)
	tp := nn.NewTape()
	rows := f.Rows(tp, []graph.ID{v0, v1})
	if rows.Val.At(0, 0) != 1 || rows.Val.At(0, 1) != 2 {
		t.Fatalf("truncate: %v", rows.Val.Row(0))
	}
	if rows.Val.At(1, 0) != 5 || rows.Val.At(1, 1) != 0 {
		t.Fatalf("pad: %v", rows.Val.Row(1))
	}
	if f.Params() != nil {
		t.Fatal("attr features must be static")
	}
}

func TestTableFeaturesTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewTableFeatures("emb", 4, 3, rng)
	if len(f.Params()) != 1 {
		t.Fatal("table features must expose a parameter")
	}
	tp := nn.NewTape()
	rows := f.Rows(tp, []graph.ID{2, 2})
	loss := tp.MeanAll(rows)
	tp.Backward(loss)
	// Row 2 was used twice, so its grad must be nonzero; row 0 untouched.
	if f.Emb.Grad.At(2, 0) == 0 {
		t.Fatal("used row has zero grad")
	}
	if f.Emb.Grad.At(0, 0) != 0 {
		t.Fatal("unused row has grad")
	}
}

func TestConcatFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := cycleGraph(4)
	f := &ConcatFeatures{Srcs: []FeatureSource{
		NewAttrFeatures(g, 2),
		NewTableFeatures("emb", 4, 3, rng),
	}}
	if f.Dim() != 5 {
		t.Fatalf("dim = %d", f.Dim())
	}
	tp := nn.NewTape()
	rows := f.Rows(tp, []graph.ID{0, 1})
	if rows.Val.Rows != 2 || rows.Val.Cols != 5 {
		t.Fatalf("shape %dx%d", rows.Val.Rows, rows.Val.Cols)
	}
	if len(f.Params()) != 1 {
		t.Fatal("params must pass through")
	}
}

// selfRecorder is a Combiner that records the self rows it receives: at
// hop 2 those are the hop-1 outputs.
type selfRecorder struct {
	operator.Combiner
	self *nn.Node
}

func (c *selfRecorder) Combine(t *nn.Tape, self, neigh *nn.Node) *nn.Node {
	c.self = self
	return c.Combiner.Combine(t, self, neigh)
}

func TestEncoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := cycleGraph(10)
	feat := NewTableFeatures("emb", 10, 4, rng)
	enc := newEncoder(g, feat, []int{8, 6}, false, rng)
	if enc.OutDim() != 6 {
		t.Fatalf("out dim = %d", enc.OutDim())
	}
	rec := &selfRecorder{Combiner: enc.Comb[1]}
	enc.Comb[1] = rec
	nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), rng)
	ctx, err := nbr.Sample(0, []graph.ID{0, 3, 7}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tp := nn.NewTape()
	h := enc.Encode(tp, ctx)
	if h.Val.Rows != 3 || h.Val.Cols != 6 {
		t.Fatalf("encode shape %dx%d", h.Val.Rows, h.Val.Cols)
	}
	// The intermediate hop is normalized (Algorithm 1 line 7): its rows
	// have unit norm.
	if rec.self == nil || rec.self.Val.Rows != 3 || rec.self.Val.Cols != 8 {
		t.Fatal("hop-2 COMBINE did not see the 3x8 hop-1 rows")
	}
	for i := 0; i < 3; i++ {
		s := 0.0
		for _, v := range rec.self.Val.Row(i) {
			s += float64(v * v)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("hop-1 row %d norm² = %f", i, s)
		}
	}
}

// The materialized encoder computes one row per distinct vertex of each
// layer; with vertex-keyed draws that is exactly the positional evaluation,
// so the two agree bit for bit at the shipped hops [5,3], over a batch with
// repeated vertices, for every aggregator and combiner.
func TestMaterializedMatchesPositional(t *testing.T) {
	g := twoCommunityGraph(12, rand.New(rand.NewSource(4)))
	batch := []graph.ID{0, 3, 0, 17, 5, 3, 3, 22, 17, 0}
	nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), nil)
	var ctx sampling.Context
	if err := nbr.SampleInto(&ctx, 0, batch, []int{5, 3}, sampling.NewRng(4)); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"mean", "sum", "maxpool", "lstm"} {
		for _, comb := range []string{"sum", "sumproj", "concat"} {
			enc := newTestEncoder(g, agg, comb, false, ctx.HopNums, rand.New(rand.NewSource(5)))
			want := enc.Encode(nn.NewTape(), &ctx)
			enc.Materialize = true
			got := enc.Encode(nn.NewTape(), &ctx)
			if got.Val.Rows != len(batch) {
				t.Fatalf("%s/%s: %d rows, want %d", agg, comb, got.Val.Rows, len(batch))
			}
			for i := range want.Val.Data {
				if math.Float64bits(got.Val.Data[i]) != math.Float64bits(want.Val.Data[i]) {
					t.Fatalf("%s/%s: element %d materialized %v, positional %v", agg, comb, i, got.Val.Data[i], want.Val.Data[i])
				}
			}
		}
	}
}

// The materialized encoder must also backprop into the feature table.
func TestMaterializedBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := cycleGraph(6)
	feat := NewTableFeatures("emb", 6, 4, rng)
	enc := newEncoder(g, feat, []int{4}, true, rng)
	nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), rng)
	ctx, _ := nbr.Sample(0, []graph.ID{0, 1, 2}, []int{2})

	tp := nn.NewTape()
	h := enc.Encode(tp, ctx)
	loss := tp.MeanAll(h)
	tp.Backward(loss)
	nonzero := false
	for _, v := range feat.Emb.Grad.Data {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("materialized path produced no feature gradients")
	}
}

func twoCommunityGraph(size int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), false)
	b.AddVertices(0, 2*size)
	for c := 0; c < 2; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for k := 0; k < 4; k++ {
				j := rng.Intn(size)
				if i != j {
					b.AddEdge(graph.ID(base+i), graph.ID(base+j), 0, 1)
				}
			}
		}
	}
	// Sparse cross links.
	for i := 0; i < size/4; i++ {
		b.AddEdge(graph.ID(rng.Intn(size)), graph.ID(size+rng.Intn(size)), 0, 1)
	}
	return b.Finalize()
}

func TestLinkTrainerLearnsCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, rng)
	feat := NewTableFeatures("emb", g.NumVertices(), 8, rng)
	enc := newEncoder(g, feat, []int{8}, true, rng)
	cfg := TrainerConfig{EdgeType: 0, HopNums: []int{3}, Batch: 32, NegK: 3, LR: 0.05}
	tr := NewLinkTrainer(g, enc, cfg, rng)

	losses, err := tr.Train(120)
	if err != nil {
		t.Fatal(err)
	}
	first := avg(losses[:10])
	last := avg(losses[len(losses)-10:])
	if last >= first {
		t.Fatalf("loss did not decrease: %f -> %f", first, last)
	}

	// Intra-community pairs should now score above cross-community pairs on
	// average.
	intra, inter := 0.0, 0.0
	for i := 0; i < 30; i++ {
		s1, err := tr.Score(graph.ID(rng.Intn(20)), graph.ID(rng.Intn(20)))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := tr.Score(graph.ID(rng.Intn(20)), graph.ID(20+rng.Intn(20)))
		if err != nil {
			t.Fatal(err)
		}
		intra += s1
		inter += s2
	}
	if intra <= inter {
		t.Fatalf("intra %f <= inter %f", intra, inter)
	}
}

func TestEmbedAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := cycleGraph(12)
	feat := NewTableFeatures("emb", 12, 4, rng)
	enc := newEncoder(g, feat, []int{4}, true, rng)
	tr := NewLinkTrainer(g, enc, TrainerConfig{HopNums: []int{2}, Batch: 8, NegK: 2, LR: 0.01}, rng)
	m, err := tr.EmbedAll()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 12 || m.Cols != 4 {
		t.Fatalf("embed all shape %dx%d", m.Rows, m.Cols)
	}
	var zero tensor.Matrix
	_ = zero
	for i := 0; i < m.Rows; i++ {
		norm := 0.0
		for _, v := range m.Row(i) {
			norm += float64(v * v)
		}
		if norm == 0 {
			t.Fatalf("vertex %d has zero embedding", i)
		}
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
