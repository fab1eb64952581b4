package algo

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// Hierarchical GNN (Section 4.2) learns layered representations DiffPool-
// style: a single-layer GNN produces embeddings Z^(l) on adjacency A^(l);
// a pooling GNN plus softmax yields the assignment matrix S^(l); the graph
// is coarsened as A^(l+1) = S^(l)ᵀ A^(l) S^(l), X^(l+1) = S^(l)ᵀ Z^(l); and
// the next layer runs on the coarsened graph. A vertex's final embedding
// combines its own Z with the embedding of its cluster, giving the model
// the hierarchical expressive power flat GNNs lack.
type Hierarchical struct {
	Dim      int
	Clusters int
	Steps    int
	NegK     int
	LR       float64
	EdgeType graph.EdgeType
	Seed     int64

	emb *tensor.Matrix
}

// NewHierarchical creates the model.
func NewHierarchical(dim, clusters int) *Hierarchical {
	return &Hierarchical{Dim: dim, Clusters: clusters, Steps: 120, NegK: 4, LR: 0.02, Seed: 1}
}

// Name implements Embedder.
func (h *Hierarchical) Name() string { return "HierarchicalGNN" }

// Fit implements Embedder. The model is transductive and dense (the
// coarsening algebra is matrix-valued), so it targets graphs of up to a few
// thousand vertices — the scale of its Table 10 comparison.
func (h *Hierarchical) Fit(g *graph.Graph) error {
	rng := rand.New(rand.NewSource(h.Seed))
	n := g.NumVertices()

	// Row-normalized adjacency with self loops over the target edge type
	// (merged with all types so the hierarchy sees the full structure).
	adj := tensor.New(n, n)
	for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
		g.EdgesOfType(graph.EdgeType(t), func(src, dst graph.ID, w float64) bool {
			adj.Set(int(src), int(dst), adj.At(int(src), int(dst))+w)
			adj.Set(int(dst), int(src), adj.At(int(dst), int(src))+w)
			return true
		})
	}
	for i := 0; i < n; i++ {
		adj.Set(i, i, adj.At(i, i)+1)
	}
	for i := 0; i < n; i++ {
		row := adj.Row(i)
		s := 0.0
		for _, v := range row {
			s += v
		}
		for j := range row {
			row[j] /= s
		}
	}

	x := nn.NewParamGaussian("hier.x", n, h.Dim, 0.1, rng)
	gnn1 := nn.NewDense("hier.gnn1", h.Dim, h.Dim, nn.ActReLU, rng)
	pool := nn.NewDense("hier.pool", h.Dim, h.Clusters, nn.ActIdentity, rng)
	gnn2 := nn.NewDense("hier.gnn2", h.Dim, h.Dim, nn.ActReLU, rng)
	out := nn.NewDense("hier.out", 2*h.Dim, h.Dim, nn.ActIdentity, rng)
	params := []*nn.Param{x}
	for _, l := range []*nn.Dense{gnn1, pool, gnn2, out} {
		params = append(params, l.Params()...)
	}
	opt := nn.NewAdam(h.LR)

	trav := sampling.NewTraverse(g, rng)
	neg := sampling.NewNegative(g, h.EdgeType, rng)

	forward := func(t *nn.Tape) *nn.Node {
		a := t.Input(adj)
		// Layer 1: Z = GNN1(A, X), S = softmax(Pool(A, X)).
		ax := t.MatMul(a, t.Use(x))
		z := gnn1.Forward(t, ax)
		s := t.Softmax(pool.Forward(t, ax)) // n x K
		// Coarsen: A2 = Sᵀ A S, X2 = Sᵀ Z.
		st := t.TransposeNode(s)
		a2 := t.MatMul(t.MatMul(st, a), s)
		x2 := t.MatMul(st, z)
		// Layer 2 on the coarse graph.
		z2 := gnn2.Forward(t, t.MatMul(a2, x2)) // K x d
		// Distribute cluster embeddings back: S @ Z2 (n x d).
		up := t.MatMul(s, z2)
		return out.Forward(t, z, up)
	}

	for step := 0; step < h.Steps; step++ {
		edges := trav.SampleEdges(h.EdgeType, 64)
		t := nn.NewTape()
		all := forward(t)
		si := make([]int, len(edges))
		di := make([]int, len(edges))
		srcIDs := make([]graph.ID, len(edges))
		for i, e := range edges {
			si[i] = int(e.Src)
			di[i] = int(e.Dst)
			srcIDs[i] = e.Src
		}
		negIDs := neg.Sample(srcIDs, h.NegK)
		rep := make([]int, len(negIDs))
		ni := make([]int, len(negIDs))
		for i, u := range negIDs {
			rep[i] = si[i/h.NegK]
			ni[i] = int(u)
		}
		pos := t.RowDot(t.Gather(all, si), t.Gather(all, di))
		ngs := t.RowDot(t.Gather(all, rep), t.Gather(all, ni))
		loss := t.NegSamplingLoss(pos, ngs)
		t.Backward(loss)
		nn.ClipGrad(params, 5)
		opt.Step(params)
	}

	t := nn.NewTape()
	h.emb = forward(t).Val.Clone()
	return nil
}

// Embedding implements Embedder.
func (h *Hierarchical) Embedding(v graph.ID, _ graph.EdgeType) []float64 {
	return h.emb.Row(int(v))
}
