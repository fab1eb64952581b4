// Package core implements the paper's primary contribution: the GNN
// framework of Algorithm 1 (SAMPLE -> AGGREGATE -> COMBINE per hop, with
// normalization), the mini-batch encoder with the intermediate-vector
// materialization cache of Section 3.4 (Table 5), feature sources, and a
// reusable link-prediction trainer that every algorithm in internal/algo
// builds on.
package core

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// FeatureSource produces the hop-0 embeddings h⁰_v = x_v (Algorithm 1
// line 1) as tape nodes, so learnable sources (embedding tables)
// participate in backprop.
type FeatureSource interface {
	Dim() int
	// Rows returns a len(vs) x Dim node with one feature row per vertex.
	// LinkTrainer.Step encodes its three contexts on three goroutines, so
	// implementations must be safe for concurrent calls during one step:
	// AttrFeatures and TableFeatures only read, and ConcatFeatures only
	// calls its sources.
	Rows(t *nn.Tape, vs []graph.ID) *nn.Node
	// Params returns trainable parameters (empty for static sources).
	Params() []*nn.Param
}

// PrefetchingFeatures is an optional FeatureSource capability for sources
// whose hop-0 rows live behind a network fetch (cluster attribute RPCs).
// A batch pipeline fetches the rows of a future batch on its worker
// goroutines (PrefetchAttrs, concurrent-safe) and the trainer installs them
// for the duration of the batch's encodes (ServePrefetched, called from the
// consuming goroutine only), so attribute latency overlaps compute instead
// of stalling Rows.
type PrefetchingFeatures interface {
	FeatureSource
	// PrefetchAttrs fetches the attribute rows of vs into the map (duplicate
	// vertices fetched once), reading the pinned snapshot when pin is
	// non-nil. Safe for concurrent use.
	PrefetchAttrs(vs []graph.ID, pin *sampling.Pin, into map[graph.ID][]float64) error
	// ServePrefetched installs rows for subsequent Rows calls; nil reverts
	// to direct fetching. Not concurrent-safe.
	ServePrefetched(rows map[graph.ID][]float64)
}

// FindPrefetcher returns the prefetching capability inside f, unwrapping
// ConcatFeatures compositions; nil when features are purely local.
func FindPrefetcher(f FeatureSource) PrefetchingFeatures {
	if p, ok := f.(PrefetchingFeatures); ok {
		return p
	}
	if c, ok := f.(*ConcatFeatures); ok {
		for _, s := range c.Srcs {
			if p := FindPrefetcher(s); p != nil {
				return p
			}
		}
	}
	return nil
}

// AttrFeatures serves raw vertex attributes, padded or truncated to a fixed
// dimension (heterogeneous vertex types have different attribute lengths).
type AttrFeatures struct {
	G *graph.Graph
	D int
}

// NewAttrFeatures creates a static attribute source with dimension d.
func NewAttrFeatures(g *graph.Graph, d int) *AttrFeatures { return &AttrFeatures{G: g, D: d} }

// Dim implements FeatureSource.
func (f *AttrFeatures) Dim() int { return f.D }

// Rows implements FeatureSource.
func (f *AttrFeatures) Rows(t *nn.Tape, vs []graph.ID) *nn.Node {
	m := tensor.New(len(vs), f.D)
	for i, v := range vs {
		attr := f.G.VertexAttr(v)
		row := m.Row(i)
		for j := 0; j < len(attr) && j < f.D; j++ {
			row[j] = attr[j]
		}
	}
	return t.Input(m)
}

// Params implements FeatureSource.
func (f *AttrFeatures) Params() []*nn.Param { return nil }

// TableFeatures is a learnable per-vertex embedding table (the transductive
// setting: DeepWalk-style free embeddings).
type TableFeatures struct {
	Emb *nn.Param
}

// NewTableFeatures allocates an n x d learnable table.
func NewTableFeatures(name string, n, d int, rng *rand.Rand) *TableFeatures {
	return &TableFeatures{Emb: nn.NewParamGaussian(name, n, d, 0.1, rng)}
}

// Dim implements FeatureSource.
func (f *TableFeatures) Dim() int { return f.Emb.Val.Cols }

// Rows implements FeatureSource.
func (f *TableFeatures) Rows(t *nn.Tape, vs []graph.ID) *nn.Node {
	idx := make([]int, len(vs))
	for i, v := range vs {
		idx[i] = int(v)
	}
	return t.Gather(t.Use(f.Emb), idx)
}

// Params implements FeatureSource.
func (f *TableFeatures) Params() []*nn.Param { return []*nn.Param{f.Emb} }

// ConcatFeatures concatenates several sources (e.g. attributes plus a
// learnable table, the inductive+transductive mix).
type ConcatFeatures struct {
	Srcs []FeatureSource
}

// Dim implements FeatureSource.
func (f *ConcatFeatures) Dim() int {
	d := 0
	for _, s := range f.Srcs {
		d += s.Dim()
	}
	return d
}

// Rows implements FeatureSource.
func (f *ConcatFeatures) Rows(t *nn.Tape, vs []graph.ID) *nn.Node {
	parts := make([]*nn.Node, len(f.Srcs))
	for i, s := range f.Srcs {
		parts[i] = s.Rows(t, vs)
	}
	return t.Concat(parts...)
}

// Params implements FeatureSource.
func (f *ConcatFeatures) Params() []*nn.Param {
	var ps []*nn.Param
	for _, s := range f.Srcs {
		ps = append(ps, s.Params()...)
	}
	return ps
}
