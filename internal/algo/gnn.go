package algo

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/tensor"
)

// This file implements the GNN baselines of category C4 by instantiating
// the Algorithm 1 framework with different SAMPLE / AGGREGATE / COMBINE
// strategies, exactly as Section 4.1 prescribes ("in other GNN methods such
// as GCN, FastGCN and AS-GCN, we can replace different strategies on
// SAMPLING, AGGREGATE and COMBINE").

// SAGEAggregator selects the GraphSAGE aggregator flavour.
type SAGEAggregator int

// GraphSAGE aggregator flavours.
const (
	SAGEMean SAGEAggregator = iota
	SAGEPool
	SAGELSTM
)

// GNNConfig bundles the shared GNN hyper-parameters.
type GNNConfig struct {
	Dim      int
	HopNums  []int
	Batch    int
	NegK     int
	Steps    int
	LR       float64
	EdgeType graph.EdgeType
	Seed     int64
	// UseAttrs feeds vertex attributes alongside the learnable table
	// (inductive+transductive mix); without attributes the model is purely
	// transductive.
	UseAttrs bool
	AttrDim  int
}

// DefaultGNNConfig returns laptop-scale defaults.
func DefaultGNNConfig() GNNConfig {
	return GNNConfig{Dim: 32, HopNums: []int{4, 3}, Batch: 64, NegK: 4, Steps: 150, LR: 0.02, Seed: 1}
}

// GraphSAGE is the inductive GNN of Hamilton et al., built directly on the
// platform: node-wise NEIGHBORHOOD sampling, mean/pool/LSTM AGGREGATE and
// concat COMBINE, with the Section 3.4 materialization enabled.
type GraphSAGE struct {
	Cfg GNNConfig
	Agg SAGEAggregator

	emb *tensor.Matrix
}

// NewGraphSAGE creates a GraphSAGE model.
func NewGraphSAGE(cfg GNNConfig, agg SAGEAggregator) *GraphSAGE {
	return &GraphSAGE{Cfg: cfg, Agg: agg}
}

// Name implements Embedder.
func (s *GraphSAGE) Name() string { return "GraphSAGE" }

// Fit implements Embedder.
func (s *GraphSAGE) Fit(g *graph.Graph) error {
	rng := rand.New(rand.NewSource(s.Cfg.Seed))
	enc := buildEncoder(g, s.Cfg, func(name string, in, out int) operator.Aggregator {
		switch s.Agg {
		case SAGEPool:
			return operator.NewMaxPoolAggregator(name, in, out, rng)
		case SAGELSTM:
			return operator.NewLSTMAggregator(name, in, out, rng)
		default:
			return operator.NewMeanAggregator(name, in, out, rng)
		}
	}, rng)
	return fitEncoder(g, enc, s.Cfg, rng, &s.emb)
}

// Embedding implements Embedder.
func (s *GraphSAGE) Embedding(v graph.ID, _ graph.EdgeType) []float64 { return s.emb.Row(int(v)) }

// GCN approximates Kipf & Welling's graph convolution in the sampled
// framework: wide weighted NEIGHBORHOOD sampling, sum AGGREGATE (the
// unnormalized convolution) and sum COMBINE (self-loop added to the
// aggregate), per the framework-instantiation argument of Section 4.1.
type GCN struct {
	Cfg GNNConfig
	emb *tensor.Matrix
}

// NewGCN creates a GCN model.
func NewGCN(cfg GNNConfig) *GCN { return &GCN{Cfg: cfg} }

// Name implements Embedder.
func (m *GCN) Name() string { return "GCN" }

// Fit implements Embedder.
func (m *GCN) Fit(g *graph.Graph) error {
	rng := rand.New(rand.NewSource(m.Cfg.Seed))
	cfg := m.Cfg
	// GCN convolves over the full neighborhood; emulate with wider sampling.
	widened := make([]int, len(cfg.HopNums))
	for i, h := range cfg.HopNums {
		widened[i] = h * 2
	}
	cfg.HopNums = widened
	enc := &core.Encoder{Features: features(g, cfg, rng), Materialize: true}
	in := enc.Features.Dim()
	for range cfg.HopNums {
		enc.Agg = append(enc.Agg, operator.NewMeanAggregator("gcn.agg", in, cfg.Dim, rng))
		enc.Comb = append(enc.Comb, operator.NewSumCombinerProj("gcn.comb", in, cfg.Dim, rng))
		in = cfg.Dim
	}
	return fitEncoder(g, enc, cfg, rng, &m.emb)
}

// Embedding implements Embedder.
func (m *GCN) Embedding(v graph.ID, _ graph.EdgeType) []float64 { return m.emb.Row(int(v)) }

// FastGCN replaces node-wise sampling with layer-wise importance sampling:
// a fixed budget of vertices is drawn per layer proportional to squared
// degree (the q(v) ∝ ||A(:,v)||² proposal of Chen et al.), shared by the
// whole mini-batch. In this framework that is a SAMPLE-strategy swap: the
// NEIGHBORHOOD layers are filled from the importance sample.
type FastGCN struct {
	Cfg GNNConfig
	emb *tensor.Matrix
}

// NewFastGCN creates a FastGCN model.
func NewFastGCN(cfg GNNConfig) *FastGCN { return &FastGCN{Cfg: cfg} }

// Name implements Embedder.
func (m *FastGCN) Name() string { return "FastGCN" }

// Fit implements Embedder.
func (m *FastGCN) Fit(g *graph.Graph) error {
	rng := rand.New(rand.NewSource(m.Cfg.Seed))
	enc := buildEncoder(g, m.Cfg, func(name string, in, out int) operator.Aggregator {
		return operator.NewMeanAggregator(name, in, out, rng)
	}, rng)
	tr := newLayerwiseTrainer(g, enc, m.Cfg, rng)
	for i := 0; i < m.Cfg.Steps; i++ {
		if _, err := tr.StepNext(); err != nil {
			return err
		}
	}
	emb, err := tr.EmbedAll()
	if err != nil {
		return err
	}
	m.emb = emb
	return nil
}

// Embedding implements Embedder.
func (m *FastGCN) Embedding(v graph.ID, _ graph.EdgeType) []float64 { return m.emb.Row(int(v)) }

// ---------------------------------------------------------------------------
// Shared construction helpers

func features(g *graph.Graph, cfg GNNConfig, rng *rand.Rand) core.FeatureSource {
	table := core.NewTableFeatures("emb", g.NumVertices(), cfg.Dim, rng)
	if !cfg.UseAttrs {
		return table
	}
	ad := cfg.AttrDim
	if ad == 0 {
		ad = 16
	}
	return &core.ConcatFeatures{Srcs: []core.FeatureSource{core.NewAttrFeatures(g, ad), table}}
}

func buildEncoder(g *graph.Graph, cfg GNNConfig, mkAgg func(name string, in, out int) operator.Aggregator, rng *rand.Rand) *core.Encoder {
	enc := &core.Encoder{Features: features(g, cfg, rng), Materialize: true}
	in := enc.Features.Dim()
	for k := range cfg.HopNums {
		agg := mkAgg("agg", in, cfg.Dim)
		enc.Agg = append(enc.Agg, agg)
		act := nn.ActReLU
		if k == len(cfg.HopNums)-1 {
			act = nil // linear output layer
		}
		enc.Comb = append(enc.Comb, operator.NewConcatCombinerAct("comb", in, agg.OutDim(), cfg.Dim, act, rng))
		in = cfg.Dim
	}
	return enc
}

func fitEncoder(g *graph.Graph, enc *core.Encoder, cfg GNNConfig, rng *rand.Rand, out **tensor.Matrix) error {
	tcfg := core.TrainerConfig{EdgeType: cfg.EdgeType, HopNums: cfg.HopNums, Batch: cfg.Batch, NegK: cfg.NegK, LR: cfg.LR}
	tr := core.NewLinkTrainer(g, enc, tcfg, rng)
	if _, err := tr.Train(cfg.Steps); err != nil {
		return err
	}
	emb, err := tr.EmbedAll()
	if err != nil {
		return err
	}
	*out = emb
	return nil
}
