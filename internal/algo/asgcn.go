package algo

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// ASGCN approximates adaptive-sampling GCN (Huang et al.): like FastGCN it
// samples per layer rather than per node, but the proposal adapts to the
// current batch — candidate vertices are scored by connectivity to the
// previous layer *and* by their feature magnitude, the self-dependent
// component of AS-GCN's learned sampler. In the Algorithm 1 framework this
// is, once more, purely a SAMPLE-strategy swap (Section 4.1).
type ASGCN struct {
	Cfg GNNConfig
	emb *tensor.Matrix
}

// NewASGCN creates the model.
func NewASGCN(cfg GNNConfig) *ASGCN { return &ASGCN{Cfg: cfg} }

// Name implements Embedder.
func (m *ASGCN) Name() string { return "AS-GCN" }

// Fit implements Embedder.
func (m *ASGCN) Fit(g *graph.Graph) error {
	rng := rand.New(rand.NewSource(m.Cfg.Seed))
	enc := buildEncoder(g, m.Cfg, func(name string, in, out int) operator.Aggregator {
		return operator.NewMeanAggregator(name, in, out, rng)
	}, rng)
	tcfg := core.TrainerConfig{
		EdgeType: m.Cfg.EdgeType, HopNums: m.Cfg.HopNums,
		Batch: m.Cfg.Batch, NegK: m.Cfg.NegK, LR: m.Cfg.LR,
	}
	tr := core.NewLinkTrainer(g, enc, tcfg, rng)
	tr.ContextFn = adaptiveContext(g, m.Cfg.EdgeType, m.Cfg.HopNums, featureNorms(g), rng)
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
func (m *ASGCN) Embedding(v graph.ID, _ graph.EdgeType) []float64 { return m.emb.Row(int(v)) }

// featureNorms precomputes per-vertex attribute norms, the self-dependent
// term of the adaptive proposal. Attribute-less vertices get a small
// constant so they remain sampleable.
func featureNorms(g *graph.Graph) []float64 {
	out := make([]float64, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		s := 0.0
		for _, x := range g.VertexAttr(graph.ID(v)) {
			s += x * x
		}
		out[v] = math.Sqrt(s) + 1e-3
	}
	return out
}

// adaptiveContext builds the AS-GCN layer-wise context: the candidate pool
// of each hop is drawn from the previous layer's united neighborhood with
// probability proportional to (links from the previous layer) x
// (feature norm); each vertex then fills its aligned slots from the pool
// members it is actually connected to, padding with itself when none are.
func adaptiveContext(g *graph.Graph, et graph.EdgeType, hopNums []int, norms []float64, rng *rand.Rand) func(vs []graph.ID) (*sampling.Context, error) {
	return func(vs []graph.ID) (*sampling.Context, error) {
		ctx := &sampling.Context{HopNums: hopNums, Layers: make([][]graph.ID, len(hopNums)+1)}
		ctx.Layers[0] = vs
		cur := vs
		for h, width := range hopNums {
			// Candidates in first-seen order while scanning cur: the alias
			// table's layout, and so every fixed-seed draw, must not depend
			// on map iteration order.
			score := make(map[graph.ID]float64)
			var cands []graph.ID
			for _, v := range cur {
				for _, u := range g.OutNeighbors(v, et) {
					if _, seen := score[u]; !seen {
						cands = append(cands, u)
					}
					score[u] += norms[u]
				}
			}
			inPool := make(map[graph.ID]bool)
			if len(cands) > 0 {
				weights := make([]float64, len(cands))
				for i, u := range cands {
					weights[i] = score[u]
				}
				al := sampling.NewAlias(weights)
				for i := 0; i < width*4; i++ {
					inPool[cands[al.Draw(rng)]] = true
				}
			}
			next := make([]graph.ID, 0, len(cur)*width)
			for _, v := range cur {
				var hits []graph.ID
				for _, u := range g.OutNeighbors(v, et) {
					if inPool[u] {
						hits = append(hits, u)
					}
				}
				for i := 0; i < width; i++ {
					if len(hits) > 0 {
						next = append(next, hits[rng.Intn(len(hits))])
					} else {
						next = append(next, v)
					}
				}
			}
			ctx.Layers[h+1] = next
			cur = next
		}
		return ctx, nil
	}
}
