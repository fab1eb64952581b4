// Package operator implements the operator layer of Section 3.4: the
// AGGREGATE and COMBINE plugins consumed by every GNN. An Aggregator
// reduces the aligned neighbor embeddings produced by NEIGHBORHOOD sampling
// (B*K x d, K per vertex) into one vector per vertex (B x d); a Combiner
// merges a vertex's previous-hop embedding with the aggregated neighborhood
// into the next-hop embedding. All operators are differentiable: forward
// builds tape nodes, backward is handled by the autograd engine, matching
// the paper's "a typical operator is made up of forward and backward
// computations".
package operator

import (
	"math/rand"

	"repro/internal/nn"
)

// Aggregator reduces grouped neighbor embeddings into B x out, one row per
// vertex. The B*K neighbor rows are rows idx of src, each consecutive group
// of K belonging to one vertex; idx == nil means src's own rows in order
// (src is then (B*K) x d). Taking the rows by index lets an aggregator that
// reduces them directly skip building the gathered matrix.
type Aggregator interface {
	Name() string
	Aggregate(t *nn.Tape, src *nn.Node, idx []int, k int) *nn.Node
	Params() []*nn.Param
	OutDim() int
}

// neighborRows materializes an Aggregator's neighbor rows for the
// aggregators that transform each row before reducing.
func neighborRows(t *nn.Tape, src *nn.Node, idx []int) *nn.Node {
	if idx == nil {
		return src
	}
	return t.Gather(src, idx)
}

// Combiner merges self (B x d1) and aggregated neighborhood (B x d2) into
// B x out.
type Combiner interface {
	Name() string
	Combine(t *nn.Tape, self, neigh *nn.Node) *nn.Node
	Params() []*nn.Param
	OutDim() int
}

// ---------------------------------------------------------------------------
// Aggregators

// MeanAggregator is the weighted element-wise mean of GraphSAGE-mean:
// mean over the group followed by a dense projection.
type MeanAggregator struct {
	dense *nn.Dense
	out   int
}

// NewMeanAggregator creates a mean aggregator projecting d -> out.
func NewMeanAggregator(name string, d, out int, rng *rand.Rand) *MeanAggregator {
	return &MeanAggregator{dense: nn.NewDense(name+".mean", d, out, nn.ActReLU, rng), out: out}
}

// Name implements Aggregator.
func (a *MeanAggregator) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (a *MeanAggregator) Aggregate(t *nn.Tape, src *nn.Node, idx []int, k int) *nn.Node {
	return a.dense.Forward(t, t.MeanGroupsOf(src, idx, k))
}

// Params implements Aggregator.
func (a *MeanAggregator) Params() []*nn.Param { return a.dense.Params() }

// OutDim implements Aggregator.
func (a *MeanAggregator) OutDim() int { return a.out }

// SumAggregator sums the group (GCN-style un-normalized convolution) and
// projects.
type SumAggregator struct {
	dense *nn.Dense
	out   int
}

// NewSumAggregator creates a sum aggregator projecting d -> out.
func NewSumAggregator(name string, d, out int, rng *rand.Rand) *SumAggregator {
	return &SumAggregator{dense: nn.NewDense(name+".sum", d, out, nn.ActReLU, rng), out: out}
}

// Name implements Aggregator.
func (a *SumAggregator) Name() string { return "sum" }

// Aggregate implements Aggregator.
func (a *SumAggregator) Aggregate(t *nn.Tape, src *nn.Node, idx []int, k int) *nn.Node {
	return a.dense.Forward(t, t.Scale(t.MeanGroupsOf(src, idx, k), float64(k)))
}

// Params implements Aggregator.
func (a *SumAggregator) Params() []*nn.Param { return a.dense.Params() }

// OutDim implements Aggregator.
func (a *SumAggregator) OutDim() int { return a.out }

// MaxPoolAggregator is GraphSAGE-pool: a per-neighbor dense transform
// followed by element-wise max over the group.
type MaxPoolAggregator struct {
	pre *nn.Dense
	out int
}

// NewMaxPoolAggregator creates a max-pool aggregator projecting d -> out.
func NewMaxPoolAggregator(name string, d, out int, rng *rand.Rand) *MaxPoolAggregator {
	return &MaxPoolAggregator{pre: nn.NewDense(name+".pool", d, out, nn.ActReLU, rng), out: out}
}

// Name implements Aggregator.
func (a *MaxPoolAggregator) Name() string { return "maxpool" }

// Aggregate implements Aggregator.
func (a *MaxPoolAggregator) Aggregate(t *nn.Tape, src *nn.Node, idx []int, k int) *nn.Node {
	return t.MaxGroups(a.pre.Forward(t, neighborRows(t, src, idx)), k)
}

// Params implements Aggregator.
func (a *MaxPoolAggregator) Params() []*nn.Param { return a.pre.Params() }

// OutDim implements Aggregator.
func (a *MaxPoolAggregator) OutDim() int { return a.out }

// LSTMAggregator is GraphSAGE-LSTM: the K neighbors of each vertex are fed
// through an LSTM as a sequence; the final hidden state is the aggregate.
// Neighbor order comes from the sampler's (random) order, as in the paper.
type LSTMAggregator struct {
	cell *nn.LSTMCell
	out  int
}

// NewLSTMAggregator creates an LSTM aggregator with hidden size out.
func NewLSTMAggregator(name string, d, out int, rng *rand.Rand) *LSTMAggregator {
	return &LSTMAggregator{cell: nn.NewLSTMCell(name+".lstm", d, out, rng), out: out}
}

// Name implements Aggregator.
func (a *LSTMAggregator) Name() string { return "lstm" }

// Aggregate implements Aggregator.
func (a *LSTMAggregator) Aggregate(t *nn.Tape, src *nn.Node, idx []int, k int) *nn.Node {
	neigh := neighborRows(t, src, idx)
	b := neigh.Val.Rows / k
	var h, c *nn.Node
	// Timestep r consumes the r-th neighbor of every vertex: rows r, k+r,
	// 2k+r, ... gathered into a B x d slab.
	for r := 0; r < k; r++ {
		idx := make([]int, b)
		for g := 0; g < b; g++ {
			idx[g] = g*k + r
		}
		x := t.Gather(neigh, idx)
		h, c = a.cell.Step(t, x, h, c)
	}
	return h
}

// Params implements Aggregator.
func (a *LSTMAggregator) Params() []*nn.Param { return a.cell.Params() }

// OutDim implements Aggregator.
func (a *LSTMAggregator) OutDim() int { return a.out }

// ---------------------------------------------------------------------------
// Combiners

// SumCombiner computes act(W(self + neigh) + b), the "summed together and
// fed into a deep neural network" default of Section 3.4 (requires
// matching dims).
type SumCombiner struct {
	dense *nn.Dense
	out   int
}

// NewSumCombiner creates a sum combiner d -> out.
func NewSumCombiner(name string, d, out int, rng *rand.Rand) *SumCombiner {
	return &SumCombiner{dense: nn.NewDense(name+".comb", d, out, nn.ActReLU, rng), out: out}
}

// Name implements Combiner.
func (c *SumCombiner) Name() string { return "sum" }

// Combine implements Combiner.
func (c *SumCombiner) Combine(t *nn.Tape, self, neigh *nn.Node) *nn.Node {
	return c.dense.Forward(t, t.Add(self, neigh))
}

// Params implements Combiner.
func (c *SumCombiner) Params() []*nn.Param { return c.dense.Params() }

// OutDim implements Combiner.
func (c *SumCombiner) OutDim() int { return c.out }

// SumCombinerProj projects self into the neighborhood dimension before
// adding (the GCN self-loop when the feature and hidden dims differ):
// act(W_s·self + neigh + b).
type SumCombinerProj struct {
	proj *nn.Dense
	out  int
}

// NewSumCombinerProj creates a projecting sum combiner dSelf -> out.
func NewSumCombinerProj(name string, dSelf, out int, rng *rand.Rand) *SumCombinerProj {
	return &SumCombinerProj{proj: nn.NewDense(name+".proj", dSelf, out, nil, rng), out: out}
}

// Name implements Combiner.
func (c *SumCombinerProj) Name() string { return "sumproj" }

// Combine implements Combiner.
func (c *SumCombinerProj) Combine(t *nn.Tape, self, neigh *nn.Node) *nn.Node {
	return t.ReLU(t.Add(c.proj.Forward(t, self), neigh))
}

// Params implements Combiner.
func (c *SumCombinerProj) Params() []*nn.Param { return c.proj.Params() }

// OutDim implements Combiner.
func (c *SumCombinerProj) OutDim() int { return c.out }

// ConcatCombiner computes act(W[self || neigh] + b), the GraphSAGE
// combine.
type ConcatCombiner struct {
	dense *nn.Dense
	out   int
}

// NewConcatCombiner creates a concat combiner (d1+d2) -> out with ReLU.
func NewConcatCombiner(name string, d1, d2, out int, rng *rand.Rand) *ConcatCombiner {
	return NewConcatCombinerAct(name, d1, d2, out, nn.ActReLU, rng)
}

// NewConcatCombinerAct creates a concat combiner with an explicit
// activation (nil = linear). Final-hop combiners should be linear: a ReLU
// output layer dies under the negative-sampling objective, which pushes
// most pair scores negative.
func NewConcatCombinerAct(name string, d1, d2, out int, act func(*nn.Tape, *nn.Node) *nn.Node, rng *rand.Rand) *ConcatCombiner {
	return &ConcatCombiner{dense: nn.NewDense(name+".comb", d1+d2, out, act, rng), out: out}
}

// Name implements Combiner.
func (c *ConcatCombiner) Name() string { return "concat" }

// Combine implements Combiner.
func (c *ConcatCombiner) Combine(t *nn.Tape, self, neigh *nn.Node) *nn.Node {
	return c.dense.Forward(t, t.Concat(self, neigh))
}

// Params implements Combiner.
func (c *ConcatCombiner) Params() []*nn.Param { return c.dense.Params() }

// OutDim implements Combiner.
func (c *ConcatCombiner) OutDim() int { return c.out }
