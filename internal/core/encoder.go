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
	// vectors ĥ^(k) are computed once per distinct vertex of each context
	// layer and shared across every occurrence (sampled hubs appear many
	// times), bit for bit equal to the positional evaluation. Disabled,
	// each occurrence recomputes its subtree — the baseline measured in
	// Table 5.
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

// encodeMaterialized is encodePositional with every repeated row computed
// once (Section 3.4). Draws are vertex-keyed, so all occurrences of v in
// layer l have the same sampled subtree, and each hop's vector of v at
// layer l is one row of that layer's compact table, shared by every
// occurrence. Row for row the arithmetic is the positional one: layer l's
// hop-k rows combine its own hop-(k-1) rows with the HopNums[l]-wide
// groups of layer l+1's hop-(k-1) rows. Hop-0 features are fetched once,
// for the distinct vertices of all layers.
func (e *Encoder) encodeMaterialized(t *nn.Tape, ctx *sampling.Context) *nn.Node {
	L := len(ctx.Layers)

	// Per layer: the first position of each distinct vertex, and each
	// position's row in the layer's table (at[l]) — at hop 0 that table is
	// the shared feature table, later the layer's own distinct rows.
	firstPos := make([][]int, L)
	at := make([][]int, L)
	rowOf := make([][]int, L)
	featRow := make(map[graph.ID]int)
	var feats []graph.ID
	for l, layer := range ctx.Layers {
		idx := make(map[graph.ID]int, len(layer))
		at[l] = make([]int, len(layer))
		rowOf[l] = make([]int, len(layer))
		for i, v := range layer {
			r, ok := idx[v]
			if !ok {
				r = len(firstPos[l])
				idx[v] = r
				firstPos[l] = append(firstPos[l], i)
			}
			rowOf[l][i] = r
			f, ok := featRow[v]
			if !ok {
				f = len(feats)
				featRow[v] = f
				feats = append(feats, v)
			}
			at[l][i] = f
		}
	}
	h := make([]*nn.Node, L)
	hat := e.Features.Rows(t, feats)
	for l := range h {
		h[l] = hat
	}

	kmax := L - 1
	for k := 1; k <= kmax; k++ {
		for l := 0; l < L-k; l++ {
			width := ctx.HopNums[l]
			flat := make([]int, 0, len(firstPos[l])*width)
			for _, i := range firstPos[l] {
				flat = append(flat, at[l+1][i*width:(i+1)*width]...)
			}
			agg := e.Agg[k-1].Aggregate(t, h[l+1], flat, width)
			own := h[l] // from hop 2 on, the layer's own rows in order
			if k == 1 {
				self := make([]int, len(firstPos[l]))
				for r, i := range firstPos[l] {
					self[r] = at[l][i]
				}
				own = t.Gather(own, self)
			}
			comb := e.Comb[k-1].Combine(t, own, agg)
			if k < kmax {
				comb = t.RowL2Normalize(comb)
			}
			h[l] = comb
		}
		// The layers' own tables replace the feature table from hop 1 on.
		if k == 1 {
			copy(at, rowOf)
		}
	}
	return t.Gather(h[0], at[0])
}
