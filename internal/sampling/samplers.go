package sampling

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ---------------------------------------------------------------------------
// TRAVERSE sampler

// Traverse samples batches of vertices or edges of a given type from the
// (partitioned sub)graph; it is the entry point of every training loop
// (Figure 5: vertex = s1.sample(edge_type, batch_size)).
type Traverse struct {
	G   *graph.Graph
	Rng *rand.Rand

	// eligible caches, per edge type, the vertices with at least one
	// out-edge of that type. Built on first use; a rejection loop over the
	// whole vertex range would degenerate (or never terminate when the pool
	// is empty) on sparse edge types.
	eligible map[graph.EdgeType][]graph.ID
}

// NewTraverse creates a TRAVERSE sampler over g.
func NewTraverse(g *graph.Graph, rng *rand.Rand) *Traverse {
	return &Traverse{G: g, Rng: rng}
}

// pool returns (building lazily) the vertices with out-edges of type t.
func (s *Traverse) pool(t graph.EdgeType) []graph.ID {
	if p, ok := s.eligible[t]; ok {
		return p
	}
	var p []graph.ID
	for v := 0; v < s.G.NumVertices(); v++ {
		if s.G.OutDegree(graph.ID(v), t) > 0 {
			p = append(p, graph.ID(v))
		}
	}
	if s.eligible == nil {
		s.eligible = make(map[graph.EdgeType][]graph.ID)
	}
	s.eligible[t] = p
	return p
}

// SampleVertices draws batch source vertices uniformly among vertices that
// have at least one out-edge of type t. When no vertex qualifies the batch
// is empty rather than looping forever.
func (s *Traverse) SampleVertices(t graph.EdgeType, batch int) []graph.ID {
	pool := s.pool(t)
	if len(pool) == 0 {
		return nil
	}
	out := make([]graph.ID, batch)
	for i := range out {
		out[i] = pool[s.Rng.Intn(len(pool))]
	}
	return out
}

// SampleVerticesOfType draws batch vertices uniformly among vertices of
// vertex type vt; empty when the graph has no such vertices.
func (s *Traverse) SampleVerticesOfType(vt graph.VertexType, batch int) []graph.ID {
	pool := s.G.VerticesOfType(vt)
	if len(pool) == 0 {
		return nil
	}
	out := make([]graph.ID, batch)
	for i := range out {
		out[i] = pool[s.Rng.Intn(len(pool))]
	}
	return out
}

// SampleEdges draws batch edges of type t uniformly over CSR entries: each
// draw is a uniform rank r in [0, NumEdgesOfType(t)), and the edge is the
// r-th in (source ID, list position) order (graph.OutEdgeAt) — the rule
// every TRAVERSE draw follows, local or served from a version.View.
func (s *Traverse) SampleEdges(t graph.EdgeType, batch int) []graph.Edge {
	return s.AppendEdges(make([]graph.Edge, 0, batch), t, batch)
}

// AppendEdges is SampleEdges into a caller-owned buffer: batch draws are
// appended to dst and the grown slice returned, so a steady-state training
// loop recycling its MiniBatch buffers performs no per-batch allocation.
// The draw sequence is identical to SampleEdges': per edge, one Rng.Uint64
// reduced to a rank as Rng.Int64n reduces one in version.View.SampleEdge.
func (s *Traverse) AppendEdges(dst []graph.Edge, t graph.EdgeType, batch int) []graph.Edge {
	m := int64(s.G.NumEdgesOfType(t))
	if m == 0 {
		return dst
	}
	for i := 0; i < batch; i++ {
		src, to, w := s.G.OutEdgeAt(t, reduce(s.Rng.Uint64(), m))
		dst = append(dst, graph.Edge{Src: src, Dst: to, Type: t, Weight: w})
	}
	return dst
}

// EpochVertices returns all vertices with out-edges of type t in shuffled
// order, for full-epoch traversal.
func (s *Traverse) EpochVertices(t graph.EdgeType) []graph.ID {
	out := append([]graph.ID(nil), s.pool(t)...)
	s.Rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---------------------------------------------------------------------------
// NEIGHBORHOOD sampler

// Context is the sampled multi-hop neighborhood of a vertex batch: Layers[0]
// is the batch itself; Layers[h] holds, for each vertex of Layers[h-1],
// exactly HopNums[h-1] sampled neighbors, flattened in order.
//
// A zero Context is ready for use with SampleInto, which reuses the layer
// buffers across calls; one Context must not be shared between goroutines.
type Context struct {
	HopNums []int
	Layers  [][]graph.ID
}

// NeighborsOf returns the sampled neighbors of the i-th vertex of layer h
// (the slice aliases the layer storage).
func (c *Context) NeighborsOf(h, i int) []graph.ID {
	width := c.HopNums[h]
	return c.Layers[h+1][i*width : (i+1)*width]
}

// Neighborhood samples aligned fixed-size neighborhoods
// (Figure 5: context = s2.sample(edge_type, vertex, hop_nums)).
//
// A Neighborhood is safe for concurrent SampleInto calls as long as each
// goroutine supplies its own Context and Rng.
type Neighborhood struct {
	Src Source
	Rng *rand.Rand
}

// NewNeighborhood creates a NEIGHBORHOOD sampler over src.
func NewNeighborhood(src Source, rng *rand.Rand) *Neighborhood {
	return &Neighborhood{Src: src, Rng: rng}
}

// Sample expands the batch hop by hop. Vertices with no neighbors under t
// are padded with themselves, keeping every layer perfectly aligned (the
// aligned output is what makes the downstream AGGREGATE batched).
//
// Sample allocates a fresh Context per call; hot loops should hold a
// Context and an Rng and call SampleInto instead.
func (s *Neighborhood) Sample(t graph.EdgeType, batch []graph.ID, hopNums []int) (*Context, error) {
	ctx := &Context{}
	if err := s.SampleInto(ctx, t, batch, hopNums, NewRng(uint64(s.Rng.Int63()))); err != nil {
		return nil, err
	}
	return ctx, nil
}

// SampleInto is Sample with caller-owned state: layer buffers are reused
// from ctx (growing only until steady state) and randomness comes from rng,
// so a warm call performs zero allocations. ctx and rng must not be shared
// between goroutines; s itself may be.
//
// Each hop is one SampleBatch call, seeded by one rng draw: local graphs
// draw in place; distributed clients dedup hubs and pay at most one RPC
// per owning server. An EpochView source is tagged with the hop it serves.
// Draws are vertex-keyed (DrawVertex) under the hop's seed, so within one
// hop every occurrence of a vertex gets the same neighbour group, and a
// vertex's subtree depends only on rng's state, not on the rest of the
// batch: sampling {v} alone from the same rng state reproduces v's subtree.
func (s *Neighborhood) SampleInto(ctx *Context, t graph.EdgeType, batch []graph.ID, hopNums []int, rng *Rng) error {
	ctx.HopNums = append(ctx.HopNums[:0], hopNums...)
	for len(ctx.Layers) < len(hopNums)+1 {
		ctx.Layers = append(ctx.Layers, nil)
	}
	ctx.Layers = ctx.Layers[:len(hopNums)+1]
	ctx.Layers[0] = append(ctx.Layers[0][:0], batch...)

	view, _ := s.Src.(EpochView)
	if view != nil {
		defer view.SetHop(0)
	}
	cur := ctx.Layers[0]
	for h, width := range hopNums {
		if view != nil {
			view.SetHop(h + 1)
		}
		need := len(cur) * width
		next := ctx.Layers[h+1]
		if cap(next) < need {
			next = make([]graph.ID, need)
		} else {
			next = next[:need]
		}
		if err := s.Src.SampleBatch(next, cur, t, width, rng.Uint64()); err != nil {
			return err
		}
		ctx.Layers[h+1] = next
		cur = next
	}
	return nil
}

// ---------------------------------------------------------------------------
// NEGATIVE sampler

// Negative draws negative examples from the smoothed unigram distribution
// P(v) ∝ deg(v)^power over candidate destination vertices of an edge type
// (Figure 5: neg = s3.sample(edge_type, vertex, neg_num)).
type Negative struct {
	Rng        *rand.Rand
	candidates []graph.ID
	table      *Alias
}

// NegativePower is the standard unigram smoothing exponent from word2vec,
// which the paper's negative samplers inherit.
const NegativePower = 0.75

// NegativePoolOf scans g for the negative candidates of edge type t: every
// vertex with at least one in-edge of that type, with its raw in-degree as
// the count. This is the single source of candidate eligibility for both
// the local sampler and the local trainer environment (the distributed
// equivalent merges per-server destination counts).
func NegativePoolOf(g *graph.Graph, t graph.EdgeType) (cands []graph.ID, counts []float64) {
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.ID(v), t); d > 0 {
			cands = append(cands, graph.ID(v))
			counts = append(counts, float64(d))
		}
	}
	return cands, counts
}

// UnigramWeights applies the word2vec unigram smoothing count^NegativePower
// to raw positive counts, in place-free form.
func UnigramWeights(counts []float64) []float64 {
	ws := make([]float64, len(counts))
	for i, c := range counts {
		ws[i] = math.Pow(c, NegativePower)
	}
	return ws
}

// NewNegative builds a negative sampler for edge type t of g: candidates are
// all vertices with at least one in-edge of type t, weighted by
// in-degree^power.
func NewNegative(g *graph.Graph, t graph.EdgeType, rng *rand.Rand) *Negative {
	cands, counts := NegativePoolOf(g, t)
	return NewNegativeFromPool(cands, UnigramWeights(counts), rng)
}

// NewNegativeFromPool builds a negative sampler over an explicit candidate
// pool with unnormalized weights. Distributed trainers merge per-server
// destination counts into such a pool (the counts summed across servers are
// exactly the global in-degrees, since every edge lives with its source).
func NewNegativeFromPool(cands []graph.ID, ws []float64, rng *rand.Rand) *Negative {
	return &Negative{Rng: rng, candidates: cands, table: NewAlias(ws)}
}

// Sample draws n negatives for each vertex of batch, avoiding the trivial
// collision with the vertex itself. Results are flattened batch-major.
func (s *Negative) Sample(batch []graph.ID, n int) []graph.ID {
	return s.AppendSample(make([]graph.ID, 0, len(batch)*n), batch, n)
}

// AppendSample is Sample into a caller-owned buffer (appended and returned),
// with a draw sequence identical to Sample's; recycled mini-batch buffers
// make steady-state negative sampling allocation-free.
func (s *Negative) AppendSample(dst []graph.ID, batch []graph.ID, n int) []graph.ID {
	for _, v := range batch {
		for i := 0; i < n; i++ {
			dst = append(dst, s.drawAvoiding(v))
		}
	}
	return dst
}

// SampleAvoiding draws n negatives avoiding every vertex in the exclusion
// set (e.g. the true positives of the current example).
func (s *Negative) SampleAvoiding(exclude map[graph.ID]struct{}, n int) []graph.ID {
	out := make([]graph.ID, 0, n)
	for len(out) < n {
		c := s.candidates[s.table.Draw(s.Rng)]
		if _, bad := exclude[c]; bad && len(s.candidates) > len(exclude) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func (s *Negative) drawAvoiding(v graph.ID) graph.ID {
	for tries := 0; tries < 8; tries++ {
		c := s.candidates[s.table.Draw(s.Rng)]
		if c != v {
			return c
		}
	}
	return s.candidates[s.table.Draw(s.Rng)]
}

// NumCandidates reports the candidate pool size.
func (s *Negative) NumCandidates() int { return len(s.candidates) }
