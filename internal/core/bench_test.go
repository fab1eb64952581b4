package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/operator"
)

// BenchmarkTrainStep times LinkTrainer.Step, the compute half of a training
// step (three encodes, loss, backward, clip, Adam), on one pre-assembled
// MiniBatch, so no sampling is timed. The set-up matches the shipped
// GraphSAGE trainer at the train workload's size: an 8.8k-vertex Taobao-sim
// graph, 16 attribute + 32 learned features, hops [5,3], batch 64 with 4
// negatives each, materialization on.
func BenchmarkTrainStep(b *testing.B) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(2))
	rng := rand.New(rand.NewSource(1))
	feat := &ConcatFeatures{Srcs: []FeatureSource{NewAttrFeatures(g, 16), NewTableFeatures("emb", g.NumVertices(), 32, rng)}}
	enc := &Encoder{Features: feat, Materialize: true}
	hops := []int{5, 3}
	in := feat.Dim()
	for k := range hops {
		act := nn.ActReLU
		if k == len(hops)-1 {
			act = nil
		}
		enc.Agg = append(enc.Agg, operator.NewMeanAggregator("agg", in, 32, rng))
		enc.Comb = append(enc.Comb, operator.NewConcatCombinerAct("comb", in, 32, 32, act, rng))
		in = 32
	}
	tr := NewLinkTrainer(g, enc, TrainerConfig{HopNums: hops, Batch: 64, NegK: 4, LR: 0.02}, rng)
	mb, err := tr.Source().Next()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := tr.Step(mb); err != nil {
			b.Fatal(err)
		}
	}
}
