package aligraph

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// qualitySteps is the training length of the held-out quality guard.
const qualitySteps = 150

// heldOutAUC trains the shipped GraphSAGE config (with attributes) for
// qualitySteps steps on split's train graph under platform seed seed, then
// returns the ROC-AUC of dot-product scores on the held-out links.
func heldOutAUC(t *testing.T, split *dataset.LinkSplit, seed int64) float64 {
	t.Helper()
	p := NewPlatform(split.Train, seed)
	tc := DefaultTrainConfig()
	tc.UseAttrs = true
	tc.EdgeType = split.EdgeType
	tr := p.NewGraphSAGE(tc)
	defer tr.Close()
	if _, err := tr.Train(qualitySteps); err != nil {
		t.Fatal(err)
	}
	row := make(map[ID]int)
	var vs []ID
	pairs := func(es [][2]ID) [][2]int64 {
		out := make([][2]int64, len(es))
		for i, e := range es {
			for _, v := range e {
				if _, ok := row[v]; !ok {
					row[v] = len(vs)
					vs = append(vs, v)
				}
			}
			out[i] = [2]int64{e[0], e[1]}
		}
		return out
	}
	pos, neg := pairs(split.TestPos), pairs(split.TestNeg)
	m, err := tr.Embed(vs)
	if err != nil {
		t.Fatal(err)
	}
	score := func(u, v int64) float64 { return eval.Dot(m.Row(row[u]), m.Row(row[v])) }
	return eval.EvalLinks(score, pos, neg).ROCAUC
}

// TestHeldOutLinkQuality guards model quality where loss bits cannot: a
// change to the draws or the encoder's arithmetic re-records the golden
// bits, and this test checks that the model still learns. The mean
// held-out ROC-AUC over seeds 1-3 must not fall below qualityFloor: the
// mean of the encoder with slot-keyed draws and first-occurrence
// materialization (0.7419; per seed 0.7338, 0.7334, 0.7586) minus that
// code's seed spread (max - min, 0.0252).
func TestHeldOutLinkQuality(t *testing.T) {
	const qualityFloor = 0.7167
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.1))
	split := dataset.SplitLinks(g, 0, 0.1, rand.New(rand.NewSource(7)))
	sum := 0.0
	for seed := int64(1); seed <= 3; seed++ {
		auc := heldOutAUC(t, split, seed)
		t.Logf("seed %d: held-out ROC-AUC %.4f", seed, auc)
		sum += auc
	}
	if mean := sum / 3; mean < qualityFloor {
		t.Fatalf("mean held-out ROC-AUC %.4f below the floor %.4f", mean, qualityFloor)
	}
}
