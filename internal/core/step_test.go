package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
)

// newTestEncoder builds an encoder whose every hop uses the given
// aggregator and combiner kinds, with d-wide features and hidden rows.
func newTestEncoder(g *graph.Graph, agg, comb string, materialize bool, hops []int, rng *rand.Rand) *Encoder {
	const d = 12 // feature and hidden width alike, so every combiner fits
	feat := &ConcatFeatures{Srcs: []FeatureSource{NewAttrFeatures(g, 4), NewTableFeatures("emb", g.NumVertices(), d-4, rng)}}
	enc := &Encoder{Features: feat, Materialize: materialize}
	for range hops {
		switch agg {
		case "mean":
			enc.Agg = append(enc.Agg, operator.NewMeanAggregator("agg", d, d, rng))
		case "sum":
			enc.Agg = append(enc.Agg, operator.NewSumAggregator("agg", d, d, rng))
		case "maxpool":
			enc.Agg = append(enc.Agg, operator.NewMaxPoolAggregator("agg", d, d, rng))
		case "lstm":
			enc.Agg = append(enc.Agg, operator.NewLSTMAggregator("agg", d, d, rng))
		}
		switch comb {
		case "sum":
			enc.Comb = append(enc.Comb, operator.NewSumCombiner("comb", d, d, rng))
		case "sumproj":
			enc.Comb = append(enc.Comb, operator.NewSumCombinerProj("comb", d, d, rng))
		case "concat":
			enc.Comb = append(enc.Comb, operator.NewConcatCombiner("comb", d, d, d, rng))
		}
	}
	return enc
}

// newStepTestTrainer builds a deterministic trainer whose encoder uses the
// given aggregator and combiner kinds at every hop; all randomness descends
// from seed.
func newStepTestTrainer(g *graph.Graph, agg, comb string, materialize bool, seed int64) *LinkTrainer {
	rng := rand.New(rand.NewSource(seed))
	hops := []int{3, 2}
	enc := newTestEncoder(g, agg, comb, materialize, hops, rng)
	cfg := TrainerConfig{EdgeType: 0, HopNums: hops, Batch: 8, NegK: 2, LR: 0.05}
	return NewLinkTrainer(g, enc, cfg, rng)
}

// singleTapeStep is the reference for LinkTrainer.Step: the three encodes
// on one plain tape, then the same loss, clip and optimizer step.
func singleTapeStep(tr *LinkTrainer, mb *MiniBatch) float64 {
	t := nn.NewTape()
	hs := tr.Enc.Encode(t, &mb.Ctxs[0])
	hd := tr.Enc.Encode(t, &mb.Ctxs[1])
	hn := tr.Enc.Encode(t, &mb.Ctxs[2])
	rep := make([]int, len(mb.Negs))
	for i := range rep {
		rep[i] = i / tr.NegK
	}
	hsRep := t.Gather(hs, rep)
	loss := t.NegSamplingLoss(t.RowDot(hs, hd), t.RowDot(hsRep, hn))
	t.Backward(loss)
	params := tr.Enc.Params()
	nn.ClipGrad(params, 5.0)
	tr.Opt.Step(params)
	return loss.Val.Data[0]
}

// Step's forked encodes are bit-identical to the single-tape reference in
// every loss and every parameter, for every aggregator and combiner and with
// materialization on and off (TestGoldenBits pins only one of these).
func TestStepMatchesSingleTapeBits(t *testing.T) {
	g := twoCommunityGraph(12, rand.New(rand.NewSource(3)))
	for _, agg := range []string{"mean", "sum", "maxpool", "lstm"} {
		for _, comb := range []string{"sum", "sumproj", "concat"} {
			for _, mat := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/materialize=%v", agg, comb, mat)
				forked := newStepTestTrainer(g, agg, comb, mat, 9)
				single := newStepTestTrainer(g, agg, comb, mat, 9)
				for step := 0; step < 4; step++ {
					fb, err := forked.Source().Next()
					if err != nil {
						t.Fatal(err)
					}
					sb, err := single.Source().Next()
					if err != nil {
						t.Fatal(err)
					}
					got, err := forked.Step(fb)
					if err != nil {
						t.Fatal(err)
					}
					want := singleTapeStep(single, sb)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: step %d loss %v, single tape %v", name, step, got, want)
					}
					forked.Source().Recycle(fb)
					single.Source().Recycle(sb)
				}
				sp := single.Enc.Params()
				for k, p := range forked.Enc.Params() {
					for i, v := range p.Val.Data {
						if math.Float64bits(v) != math.Float64bits(sp[k].Val.Data[i]) {
							t.Fatalf("%s: %s[%d] = %v, single tape %v", name, p.Name, i, v, sp[k].Val.Data[i])
						}
					}
				}
			}
		}
	}
}
