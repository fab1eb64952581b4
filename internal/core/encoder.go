package core

import (
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/sampling"
)

// Encoder runs Algorithm 1 over a sampled multi-hop context: hop k applies
// AGGREGATE to the (k-1)-hop embeddings of each vertex's sampled neighbors,
// COMBINE merges with the vertex's own (k-1)-hop embedding, and the rows
// of every intermediate hop are L2-normalized (line 7). The final hop is
// left unnormalized so the dot-product training logits are unbounded;
// normalizing the output caps logits at [-1, 1] and starves the
// negative-sampling gradient. Hop counts and widths come from the context;
// one Aggregator/Combiner pair per hop.
type Encoder struct {
	Features FeatureSource
	Agg      []operator.Aggregator
	Comb     []operator.Combiner

	// Materialize enables the Section 3.4 optimization: intermediate
	// vectors ĥ^(k) are computed once per distinct vertex in the mini-batch
	// and shared across every occurrence (sampled hubs appear many times).
	// Disabled, each occurrence recomputes its subtree — the baseline
	// measured in Table 5.
	Materialize bool
}

// Params returns all trainable parameters of the encoder.
func (e *Encoder) Params() []*nn.Param {
	ps := append([]*nn.Param(nil), e.Features.Params()...)
	for _, a := range e.Agg {
		ps = append(ps, a.Params()...)
	}
	for _, c := range e.Comb {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// OutDim returns the final embedding dimension.
func (e *Encoder) OutDim() int {
	if len(e.Comb) == 0 {
		return e.Features.Dim()
	}
	return e.Comb[len(e.Comb)-1].OutDim()
}

// Encode computes embeddings for ctx.Layers[0] (B x OutDim).
func (e *Encoder) Encode(t *nn.Tape, ctx *sampling.Context) *nn.Node {
	if e.Materialize {
		return e.encodeMaterialized(t, ctx)
	}
	return e.encodePositional(t, ctx)
}

// encodePositional is the straightforward Algorithm 1 evaluation: one row
// per occurrence in each context layer, recomputing repeated vertices.
func (e *Encoder) encodePositional(t *nn.Tape, ctx *sampling.Context) *nn.Node {
	L := len(ctx.Layers)
	kmax := L - 1

	// h[h] holds the current-hop embeddings of layer h's occurrences.
	h := make([]*nn.Node, L)
	for l := 0; l < L; l++ {
		h[l] = e.Features.Rows(t, ctx.Layers[l])
	}
	for k := 1; k <= kmax; k++ {
		next := make([]*nn.Node, L-k)
		for l := 0; l < L-k; l++ {
			agg := e.Agg[k-1].Aggregate(t, h[l+1], nil, ctx.HopNums[l])
			comb := e.Comb[k-1].Combine(t, h[l], agg)
			if k < kmax {
				comb = t.RowL2Normalize(comb)
			}
			next[l] = comb
		}
		h = next
	}
	return h[0]
}

// encodeMaterialized shares intermediate vectors among repeated vertices:
// per hop, each distinct vertex of the mini-batch is computed once into a
// compact matrix ĥ^(k) and every occurrence gathers its row (Section 3.4).
func (e *Encoder) encodeMaterialized(t *nn.Tape, ctx *sampling.Context) *nn.Node {
	L := len(ctx.Layers)
	kmax := L - 1

	// Distinct vertex table across all layers, with each vertex's sampled
	// neighbor group (first occurrence wins, per the shared-neighbors
	// approximation).
	rowOf := make(map[graph.ID]int)
	var distinct []graph.ID
	groupOf := make(map[graph.ID][]graph.ID) // sampled neighbors of v
	for l := 0; l < L; l++ {
		for i, v := range ctx.Layers[l] {
			if _, ok := rowOf[v]; !ok {
				rowOf[v] = len(distinct)
				distinct = append(distinct, v)
			}
			if l < L-1 {
				if _, ok := groupOf[v]; !ok {
					groupOf[v] = ctx.NeighborsOf(l, i)
				}
			}
		}
	}

	// ĥ^(0): features of all distinct vertices.
	hhat := e.Features.Rows(t, distinct)
	curRow := rowOf

	for k := 1; k <= kmax; k++ {
		// Vertices still needed at hop k: layers 0..L-1-k.
		needRow := make(map[graph.ID]int)
		var need []graph.ID
		for l := 0; l <= L-1-k; l++ {
			for _, v := range ctx.Layers[l] {
				if _, ok := needRow[v]; !ok {
					needRow[v] = len(need)
					need = append(need, v)
				}
			}
		}
		width := ctx.HopNums[0]
		// Flatten each needed vertex's neighbor group rows in ĥ^(k-1).
		flat := make([]int, 0, len(need)*width)
		selfIdx := make([]int, len(need))
		for i, v := range need {
			selfIdx[i] = curRow[v]
			grp := groupOf[v]
			if len(grp) > width {
				grp = grp[:width] // unify group width across layers
			}
			for _, u := range grp {
				flat = append(flat, curRow[u])
			}
			// Pad groups narrower than width (different hop widths) with
			// the vertex itself so the groups stay aligned.
			for pad := len(grp); pad < width; pad++ {
				flat = append(flat, curRow[v])
			}
		}
		// AGGREGATE reads the neighbour rows of ĥ^(k-1) by index. It goes on
		// the tape before the self Gather, so backward adds the self
		// contributions to ĥ^(k-1)'s gradient before the neighbour ones.
		agg := e.Agg[k-1].Aggregate(t, hhat, flat, width)
		self := t.Gather(hhat, selfIdx)
		comb := e.Comb[k-1].Combine(t, self, agg)
		if k < kmax {
			comb = t.RowL2Normalize(comb)
		}
		hhat = comb
		curRow = needRow
	}

	// Expand to the batch order.
	idx := make([]int, len(ctx.Layers[0]))
	for i, v := range ctx.Layers[0] {
		idx[i] = curRow[v]
	}
	return t.Gather(hhat, idx)
}
