package algo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/skipgram"
)

// tinyMultiplex builds a small two-community multiplex graph: edge type 0
// follows the base communities, edge type 1 follows shifted communities.
func tinyMultiplex(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	s := graph.MustSchema([]string{"v"}, []string{"a", "b"})
	b := graph.NewBuilder(s, false)
	b.AddVertices(0, n)
	half := n / 2
	commOf := func(v int, shift int) int { return ((v + shift*half/2) / half) % 2 }
	for t := 0; t < 2; t++ {
		for v := 0; v < n; v++ {
			for e := 0; e < 3; e++ {
				// pick a partner in the same (type-shifted) community
				for tries := 0; tries < 10; tries++ {
					u := rng.Intn(n)
					if u != v && commOf(u, t) == commOf(v, t) {
						b.AddEdge(graph.ID(v), graph.ID(u), graph.EdgeType(t), 1)
						break
					}
				}
			}
		}
	}
	return b.Finalize()
}

func smallWalkCfg() WalkConfig {
	return WalkConfig{
		WalksPerVertex: 2, WalkLength: 6,
		SG:   skipgram.Config{Dim: 8, Window: 2, Negative: 2, Epochs: 1, LR: 0.05},
		Seed: 1,
	}
}

func TestClassicBaselines(t *testing.T) {
	g := tinyMultiplex(40, 1)
	models := []Embedder{
		NewDeepWalk(smallWalkCfg()),
		NewNode2Vec(smallWalkCfg(), 0.5, 2.0),
		NewLINE(smallWalkCfg()),
		NewMetapath2Vec(smallWalkCfg(), []graph.VertexType{0}),
	}
	for _, m := range models {
		if err := m.Fit(g); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		e := m.Embedding(0, 0)
		if len(e) == 0 {
			t.Fatalf("%s: empty embedding", m.Name())
		}
		// Per-type concatenation for homogeneous baselines on a 2-type graph.
		switch m.Name() {
		case "DeepWalk", "Node2Vec", "LINE":
			if len(e) != 16 {
				t.Fatalf("%s: dim %d want 16 (2 types x 8)", m.Name(), len(e))
			}
		}
	}
}

func TestPMNEVariants(t *testing.T) {
	g := tinyMultiplex(30, 2)
	for _, v := range []PMNEVariant{PMNEn, PMNEr, PMNEc} {
		m := NewPMNE(smallWalkCfg(), v)
		if err := m.Fit(g); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		e := m.Embedding(3, 0)
		want := 8
		if v == PMNEr {
			want = 16
		}
		if len(e) != want {
			t.Fatalf("%s: dim %d want %d", m.Name(), len(e), want)
		}
	}
	if NewPMNE(smallWalkCfg(), PMNEn).Name() != "PMNE-n" {
		t.Fatal("name")
	}
}

func TestMVEWeightsNormalized(t *testing.T) {
	g := tinyMultiplex(30, 3)
	m := NewMVE(smallWalkCfg())
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range m.weights {
		if w < 0 {
			t.Fatalf("negative view weight %f", w)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum = %f", sum)
	}
	if len(m.Embedding(0, 0)) != 8 {
		t.Fatal("MVE embedding dim")
	}
}

func TestMNETypeAware(t *testing.T) {
	g := tinyMultiplex(30, 4)
	m := NewMNE(smallWalkCfg(), 4)
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	e0 := m.Embedding(5, 0)
	e1 := m.Embedding(5, 1)
	if len(e0) != 12 { // 8 common + 4 specific
		t.Fatalf("dim = %d", len(e0))
	}
	same := true
	for i := range e0 {
		if e0[i] != e1[i] {
			same = false
		}
	}
	if same {
		t.Fatal("MNE embeddings must differ across edge types")
	}
	// Common part shared.
	for i := 0; i < 8; i++ {
		if e0[i] != e1[i] {
			t.Fatal("common part must be shared")
		}
	}
}

func TestANRL(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	m := NewANRL(8)
	m.Steps = 30
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	if len(m.Embedding(0, 0)) != 8 {
		t.Fatal("ANRL dim")
	}
}

func quickGNNConfig() GNNConfig {
	return GNNConfig{Dim: 8, HopNums: []int{3, 2}, Batch: 16, NegK: 2, Steps: 25, LR: 0.05, Seed: 1}
}

func TestGNNModels(t *testing.T) {
	g := tinyMultiplex(40, 5)
	models := []Embedder{
		NewGraphSAGE(quickGNNConfig(), SAGEMean),
		NewGraphSAGE(quickGNNConfig(), SAGEPool),
		NewGCN(quickGNNConfig()),
		NewFastGCN(quickGNNConfig()),
	}
	for _, m := range models {
		if err := m.Fit(g); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(m.Embedding(1, 0)) != 8 {
			t.Fatalf("%s: wrong dim", m.Name())
		}
	}
}

// TestGraphSAGELearnsStructure bounds the mean held-out ROC-AUC of three
// 80-step runs (trainer seeds 1-3) at 0.6. One run is not a fair test: the
// AUC has a heavy left tail, and over trainer seeds 1..1000 between 24 and
// 33 single runs end below 0.6 (33 with the current draws), so a change to
// the local TRAVERSE or negative stream alone would fail a one-seed bound
// about 3% of the time. No mean of three consecutive seeds (1-3, 4-6, ...,
// 333 groups) falls below 0.6; the lowest reads 0.6049.
func TestGraphSAGELearnsStructure(t *testing.T) {
	g := tinyMultiplex(60, 6)
	sp := dataset.SplitLinks(g, 0, 0.2, rand.New(rand.NewSource(7)))
	sum := 0.0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := quickGNNConfig()
		cfg.Steps = 80
		cfg.Seed = seed
		metrics, err := EvalLinkPrediction(NewGraphSAGE(cfg, SAGEMean), sp.Train, 0, sp.TestPos, sp.TestNeg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("trainer seed %d: ROC-AUC %.4f", seed, metrics.ROCAUC)
		sum += metrics.ROCAUC
	}
	if mean := sum / 3; mean < 0.6 {
		t.Fatalf("mean GraphSAGE ROC-AUC over seeds 1-3 = %.4f, want >= 0.6", mean)
	}
}

func TestHEPAndAHEP(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	hep := NewHEP(8)
	hep.Steps = 20
	if err := hep.Fit(g); err != nil {
		t.Fatal(err)
	}
	ahep := NewAHEP(8, 3)
	ahep.Steps = 20
	if err := ahep.Fit(g); err != nil {
		t.Fatal(err)
	}
	if hep.Name() != "HEP" || ahep.Name() != "AHEP" {
		t.Fatal("names")
	}
	if ahep.NeighborsVisited >= hep.NeighborsVisited {
		t.Fatalf("AHEP visited %d neighbors, HEP %d — sampling should reduce work",
			ahep.NeighborsVisited, hep.NeighborsVisited)
	}
	if len(hep.Embedding(0, 0)) != 8 {
		t.Fatal("HEP dim")
	}
}

func TestGATNE(t *testing.T) {
	g := tinyMultiplex(40, 8)
	m := NewGATNE(8)
	m.Steps = 30
	m.Walks = smallWalkCfg()
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	e0 := m.Embedding(3, 0)
	e1 := m.Embedding(3, 1)
	if len(e0) != 8 || len(e1) != 8 {
		t.Fatal("GATNE dims")
	}
	diff := 0.0
	for i := range e0 {
		d := e0[i] - e1[i]
		diff += d * d
	}
	if diff == 0 {
		t.Fatal("GATNE type embeddings must differ")
	}
}

func TestMixtureAndRecSplit(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	rng := rand.New(rand.NewSource(9))
	sp := SplitRec(g, 3, rng) // "buy"
	if len(sp.Users) == 0 {
		t.Fatal("no eligible users")
	}
	// Held-out edges absent from train.
	for i, u := range sp.Users[:min(10, len(sp.Users))] {
		if sp.Train.HasEdge(u, sp.Heldout[i], 3) {
			t.Fatal("held-out interaction still in train graph")
		}
	}

	m := NewMixture(8, 2)
	m.Epochs = 1
	if err := m.Fit(sp.Train); err != nil {
		t.Fatal(err)
	}
	if len(m.Embedding(0, 0)) != 16 {
		t.Fatal("mixture concat dim")
	}
	ranked := sp.RankItems(m.ScoreMaxSense)
	hr := eval.HitRate(ranked, sp.Truth(), 50)
	if hr < 0 || hr > 1 {
		t.Fatalf("hr = %f", hr)
	}
}

func TestDAEAndVAE(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	rng := rand.New(rand.NewSource(10))
	sp := SplitRec(g, 0, rng)

	d := NewDAE(16)
	d.Epochs = 15
	if err := d.FitRec(sp); err != nil {
		t.Fatal(err)
	}
	rankedD := sp.RankItems(d.RankScorer())
	hrD := eval.HitRate(rankedD, sp.Truth(), 20)

	v := NewBetaVAE(16, 8, 0.5)
	v.Epochs = 15
	if err := v.FitRec(sp); err != nil {
		t.Fatal(err)
	}
	rankedV := sp.RankItems(v.RankScorer())
	hrV := eval.HitRate(rankedV, sp.Truth(), 20)

	if hrD < 0 || hrD > 1 || hrV < 0 || hrV > 1 {
		t.Fatalf("hr out of range: %f %f", hrD, hrV)
	}
	// A trained DAE should beat random ranking: with ~80 items, random
	// HR@20 ≈ 0.25; allow slack but require signal.
	if hrD == 0 && hrV == 0 {
		t.Fatal("both recommenders scored zero hits")
	}
}

func TestHierarchical(t *testing.T) {
	g := tinyMultiplex(40, 11)
	m := NewHierarchical(8, 4)
	m.Steps = 30
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	if len(m.Embedding(0, 0)) != 8 {
		t.Fatal("hierarchical dim")
	}
}

func TestDynamicModels(t *testing.T) {
	cfg := dataset.DynamicDefaultConfig()
	cfg.Vertices = 150
	cfg.T = 4
	cfg.BurstAt = []int{4}
	s := dataset.Dynamic(cfg)

	for _, m := range []DynamicModel{NewEvolving(8), NewTNE(8), NewStaticSAGE(8)} {
		micro, macro, err := MultiClassLinkEval(m, s, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if micro < 0 || micro > 1 || macro < 0 || macro > 1 {
			t.Fatalf("%s: f1 out of range %f %f", m.Name(), micro, macro)
		}
	}
}

func TestBayesian(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	base := NewGraphSAGE(quickGNNConfig(), SAGEMean)
	base.Cfg.EdgeType = 3 // buy
	base.Cfg.Steps = 20
	b := NewBayesian(base, 4, 8) // type 4 = item-item "similar"
	b.Steps = 20
	if err := b.Fit(g); err != nil {
		t.Fatal(err)
	}
	u := g.VerticesOfType(0)[0]
	it := g.VerticesOfType(1)[0]
	s := b.ScoreRec(u, it)
	if s != s { // NaN guard
		t.Fatal("NaN score")
	}
}

func TestScoreHelper(t *testing.T) {
	g := tinyMultiplex(20, 12)
	m := NewDeepWalk(smallWalkCfg())
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := Score(m, 0, 1, 0)
	if s != eval.Dot(m.Embedding(0, 0), m.Embedding(1, 0)) {
		t.Fatal("Score must be the embedding dot product")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestASGCN(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	cfg := quickGNNConfig()
	cfg.UseAttrs = true
	m := NewASGCN(cfg)
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	if m.Name() != "AS-GCN" {
		t.Fatal("name")
	}
	if len(m.Embedding(0, 0)) != cfg.Dim {
		t.Fatal("AS-GCN dim")
	}
}

// The layer-wise samplers draw from the trainer's seeded stream, so two
// fits under one seed must produce the same embedding bits.
func TestLayerwiseFitsRepeatBitForBit(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	fits := map[string]func() Embedder{
		"FastGCN": func() Embedder { return NewFastGCN(quickGNNConfig()) },
		"AS-GCN": func() Embedder {
			cfg := quickGNNConfig()
			cfg.UseAttrs = true
			return NewASGCN(cfg)
		},
	}
	for name, fit := range fits {
		a, b := fit(), fit()
		if err := a.Fit(g); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(g); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			ea, eb := a.Embedding(graph.ID(v), 0), b.Embedding(graph.ID(v), 0)
			for j := range ea {
				if math.Float64bits(ea[j]) != math.Float64bits(eb[j]) {
					t.Fatalf("%s: vertex %d dim %d: %v vs %v across two fixed-seed fits", name, v, j, ea[j], eb[j])
				}
			}
		}
	}
}

func TestBayesianRecScorer(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.02))
	base := NewGraphSAGE(quickGNNConfig(), SAGEMean)
	base.Cfg.EdgeType = 0
	b := NewBayesian(base, 4, 8)
	b.Steps = 15
	if err := b.Fit(g); err != nil {
		t.Fatal(err)
	}
	score := b.RecScorer(g)
	u := g.VerticesOfType(0)[0]
	i1 := g.VerticesOfType(1)[0]
	i2 := g.VerticesOfType(1)[1]
	s1, s2 := score(u, i1), score(u, i2)
	if s1 != s1 || s2 != s2 {
		t.Fatal("NaN scores")
	}
	// Profile must be non-zero for users with interactions.
	p := b.Profile(g, u)
	nonzero := false
	for _, x := range p {
		if x != 0 {
			nonzero = true
		}
	}
	if g.OutDegree(u, 0) > 0 && !nonzero {
		t.Fatal("empty profile for active user")
	}
}
