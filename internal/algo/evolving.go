package algo

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/skipgram"
	"repro/internal/tensor"
	"repro/internal/walk"
)

// Evolving GNN (Section 4.2) embeds vertices of a dynamic graph series
// G^(1)..G^(T). Evolving links are split into normal evolution and burst
// links; embeddings are learned in an interleaved manner — each snapshot's
// structure (with burst links identified and handled separately) refines
// the running per-vertex state, and a sequence model over the per-snapshot
// embeddings predicts forward. Here the per-snapshot embeddings come from
// SGNS (the GraphSAGE stand-in at this scale), the temporal state is a
// recency-weighted recurrence, and burst edges are excluded from the
// normal-structure corpus and routed into a burst indicator channel —
// the denoising role the paper assigns to the VAE/RNN pair.
type Evolving struct {
	Dim   int
	Walks WalkConfig
	Decay float64 // temporal recurrence weight
	Seed  int64

	emb   *tensor.Matrix
	burst []float64 // per-vertex burst involvement indicator
}

// NewEvolving creates the model.
func NewEvolving(dim int) *Evolving {
	return &Evolving{Dim: dim, Walks: DefaultWalkConfig(), Decay: 0.6, Seed: 1}
}

// Name identifies the model.
func (e *Evolving) Name() string { return "EvolvingGNN" }

// FitDynamic trains over the snapshot series. One skip-gram model is
// warm-started across snapshots (the paper's "interleaved manner"): the
// embedding space stays aligned over time, so the running state integrates
// the whole history with recency weighting — a freshly trained model per
// snapshot would live in an arbitrary rotation of the space and could not
// be blended.
func (e *Evolving) FitDynamic(s *dataset.DynamicSeries) error {
	rng := rand.New(rand.NewSource(e.Seed))
	n := s.D.At(1).NumVertices()
	e.emb = tensor.New(n, e.Dim)
	e.burst = make([]float64, n)
	m := skipgram.NewModel(n, e.Dim, rng)

	for t := 1; t <= s.D.T(); t++ {
		g := s.D.At(t)
		// Normal-structure corpus: walks on the snapshot, with burst edges
		// filtered out of the transition choices by rejecting burst
		// endpoints (the denoising step).
		burstAt := s.BurstEdges[t-1]
		corpus := e.denoisedCorpus(g, burstAt, rng)
		m.Train(corpus, skipgram.Config{
			Dim: e.Dim, Window: e.Walks.SG.Window, Negative: e.Walks.SG.Negative,
			Epochs: 1, LR: e.Walks.SG.LR,
		}, rng)
		// Temporal recurrence: running state = decay*state + (1-decay)*new.
		for v := 0; v < n; v++ {
			row := e.emb.Row(v)
			nv := m.Embedding(graph.ID(v))
			for d := 0; d < e.Dim; d++ {
				row[d] = e.Decay*row[d] + (1-e.Decay)*nv[d]
			}
		}
		// Burst channel: vertices touched by burst links get a decaying
		// indicator.
		for v := range e.burst {
			e.burst[v] *= e.Decay
		}
		for edge := range burstAt {
			e.burst[edge[0]] += 1
			e.burst[edge[1]] += 1
		}
	}
	return nil
}

func (e *Evolving) denoisedCorpus(g *graph.Graph, burst map[[2]graph.ID]bool, rng *rand.Rand) walk.Corpus {
	isBurst := func(u, v graph.ID) bool {
		return burst[[2]graph.ID{u, v}] || burst[[2]graph.ID{v, u}]
	}
	var corpus walk.Corpus
	for r := 0; r < e.Walks.WalksPerVertex; r++ {
		for v := 0; v < g.NumVertices(); v++ {
			if g.TotalOutDegree(graph.ID(v)) == 0 {
				continue
			}
			w := []graph.ID{graph.ID(v)}
			cur := graph.ID(v)
			for len(w) < e.Walks.WalkLength {
				ns := g.Neighbors(cur)
				if len(ns) == 0 {
					break
				}
				next := ns[rng.Intn(len(ns))]
				if isBurst(cur, next) && rng.Float64() < 0.8 {
					continue // reject burst transitions most of the time
				}
				w = append(w, next)
				cur = next
			}
			if len(w) > 1 {
				corpus = append(corpus, w)
			}
		}
	}
	return corpus
}

// Features returns the classifier features for an edge (u, v): both
// temporal embeddings plus the burst indicators.
func (e *Evolving) Features(u, v graph.ID) []float64 {
	out := make([]float64, 0, 2*e.Dim+2)
	out = append(out, e.emb.Row(int(u))...)
	out = append(out, e.emb.Row(int(v))...)
	out = append(out, math.Tanh(e.burst[u]), math.Tanh(e.burst[v]))
	return out
}

// TNE is the temporal network embedding baseline of Table 11: independent
// per-snapshot embeddings averaged over time — temporal smoothing without
// burst awareness.
type TNE struct {
	Dim   int
	Walks WalkConfig
	Seed  int64
	emb   *tensor.Matrix
}

// NewTNE creates the baseline.
func NewTNE(dim int) *TNE { return &TNE{Dim: dim, Walks: DefaultWalkConfig(), Seed: 1} }

// Name identifies the model.
func (m *TNE) Name() string { return "TNE" }

// FitDynamic trains on the series.
func (m *TNE) FitDynamic(s *dataset.DynamicSeries) error {
	rng := rand.New(rand.NewSource(m.Seed))
	n := s.D.At(1).NumVertices()
	m.emb = tensor.New(n, m.Dim)
	for t := 1; t <= s.D.T(); t++ {
		g := s.D.At(t)
		corpus := walk.MergedCorpus(g, m.Walks.WalksPerVertex, m.Walks.WalkLength, rng)
		sg := skipgram.TrainCorpus(n, corpus, skipgram.Config{
			Dim: m.Dim, Window: m.Walks.SG.Window, Negative: m.Walks.SG.Negative,
			Epochs: 1, LR: m.Walks.SG.LR,
		}, rng)
		for v := 0; v < n; v++ {
			row := m.emb.Row(v)
			for d, x := range sg.Embedding(graph.ID(v)) {
				row[d] += x / float64(s.D.T())
			}
		}
	}
	return nil
}

// Features returns the classifier features for an edge.
func (m *TNE) Features(u, v graph.ID) []float64 {
	return concat(m.emb.Row(int(u)), m.emb.Row(int(v)))
}

// StaticSAGE is the "run the static algorithm on the final snapshot" mode
// of the Table 11 comparison, using SGNS as the embedding engine (same
// engine as the dynamic models, so the comparison isolates temporal
// modeling).
type StaticSAGE struct {
	Dim   int
	Walks WalkConfig
	Seed  int64
	emb   *tensor.Matrix
}

// NewStaticSAGE creates the baseline.
func NewStaticSAGE(dim int) *StaticSAGE {
	return &StaticSAGE{Dim: dim, Walks: DefaultWalkConfig(), Seed: 1}
}

// Name identifies the model.
func (m *StaticSAGE) Name() string { return "GraphSAGE" }

// FitDynamic embeds only the final snapshot.
func (m *StaticSAGE) FitDynamic(s *dataset.DynamicSeries) error {
	rng := rand.New(rand.NewSource(m.Seed))
	g := s.D.At(s.D.T())
	n := g.NumVertices()
	corpus := walk.MergedCorpus(g, m.Walks.WalksPerVertex, m.Walks.WalkLength, rng)
	sg := skipgram.TrainCorpus(n, corpus, skipgram.Config{
		Dim: m.Dim, Window: m.Walks.SG.Window, Negative: m.Walks.SG.Negative,
		Epochs: 2, LR: m.Walks.SG.LR,
	}, rng)
	m.emb = sg.In.Clone()
	return nil
}

// Features returns the classifier features for an edge.
func (m *StaticSAGE) Features(u, v graph.ID) []float64 {
	return concat(m.emb.Row(int(u)), m.emb.Row(int(v)))
}

// DynamicModel is any model usable in the Table 11 comparison.
type DynamicModel interface {
	Name() string
	FitDynamic(s *dataset.DynamicSeries) error
	Features(u, v graph.ID) []float64
}

// MultiClassLinkEval runs the Table 11 task: new edges of the last snapshot
// are classified into community classes (same-community c, or the
// cross-community class C). A softmax classifier is trained on the
// second-to-last snapshot's new edges and tested on the last snapshot's.
// It returns micro and macro F1.
func MultiClassLinkEval(m DynamicModel, s *dataset.DynamicSeries, seed int64) (micro, macro float64, err error) {
	if err := m.FitDynamic(s); err != nil {
		return 0, 0, err
	}
	comm := s.Comm
	numComm := 0
	for _, c := range comm {
		if c+1 > numComm {
			numComm = c + 1
		}
	}
	classes := numComm + 1 // + cross-community class
	label := func(u, v graph.ID) int {
		if comm[u] == comm[v] {
			return comm[u]
		}
		return numComm
	}
	edgesAt := func(t int) [][2]graph.ID {
		delta := s.D.Delta(t-1, 0)
		out := make([][2]graph.ID, 0, len(delta.Added))
		for _, e := range delta.Added {
			out = append(out, [2]graph.ID{e.Src, e.Dst})
		}
		for e := range s.BurstEdges[t-1] {
			out = append(out, e)
		}
		return out
	}
	T := s.D.T()
	trainEdges := edgesAt(T - 1)
	testEdges := edgesAt(T)
	if len(trainEdges) == 0 || len(testEdges) == 0 {
		return 0, 0, nil
	}

	rng := rand.New(rand.NewSource(seed))
	featDim := len(m.Features(0, 0))
	clf := nn.NewDense("clf", featDim, classes, nn.ActIdentity, rng)
	opt := nn.NewAdam(0.05)
	X := tensor.New(len(trainEdges), featDim)
	y := make([]int, len(trainEdges))
	for i, e := range trainEdges {
		copy(X.Row(i), m.Features(e[0], e[1]))
		y[i] = label(e[0], e[1])
	}
	for step := 0; step < 150; step++ {
		t := nn.NewTape()
		logits := clf.Forward(t, t.Input(X))
		loss := t.SoftmaxCE(logits, y)
		t.Backward(loss)
		opt.Step(clf.Params())
	}

	Xt := tensor.New(len(testEdges), featDim)
	truth := make([]int, len(testEdges))
	for i, e := range testEdges {
		copy(Xt.Row(i), m.Features(e[0], e[1]))
		truth[i] = label(e[0], e[1])
	}
	t := nn.NewTape()
	logits := clf.Forward(t, t.Input(Xt))
	pred := make([]int, len(testEdges))
	for i := 0; i < logits.Val.Rows; i++ {
		best, bestV := 0, math.Inf(-1)
		for j, v := range logits.Val.Row(i) {
			if v > bestV {
				best, bestV = j, v
			}
		}
		pred[i] = best
	}
	micro, macro = eval.MicroMacroF1(pred, truth, classes)
	return micro, macro, nil
}
