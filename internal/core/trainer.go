package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// TrainEnv supplies the training-loop inputs that are not neighbor
// expansions: positive edge batches (TRAVERSE), the negative candidate pool
// with raw positive-occurrence counts (NEGATIVE applies the unigram^0.75
// smoothing itself), the size of the vertex universe, and the newest update
// epoch observed. A local graph and a distributed cluster client both
// satisfy it, which is what decouples the trainer from *graph.Graph.
type TrainEnv interface {
	// AppendEdges appends n edges of type t drawn uniformly over the edge
	// set to dst (allocation-free in steady state), reading the pinned
	// snapshot when pin is set and recording what the serving shards
	// observed into span.
	AppendEdges(dst []graph.Edge, t graph.EdgeType, n int, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error)
	// NegativePool returns negative candidates for edge type t with their
	// unnormalized positive counts (in-degrees).
	NegativePool(t graph.EdgeType) (cands []graph.ID, counts []float64, err error)
	// NumVertices reports the vertex universe size (IDs are dense).
	NumVertices() int
	// ObservedEpoch reports the newest update epoch observed across the
	// backing store: the staleness clock of epoch-refreshed negative pools.
	ObservedEpoch() uint64
}

// LocalEnv adapts an in-memory graph to TrainEnv.
type LocalEnv struct {
	G    *graph.Graph
	trav *sampling.Traverse
}

// NewLocalEnv creates the local-graph trainer environment.
func NewLocalEnv(g *graph.Graph, rng *rand.Rand) *LocalEnv {
	return &LocalEnv{G: g, trav: sampling.NewTraverse(g, rng)}
}

// AppendEdges implements TrainEnv with the local TRAVERSE sampler. Local
// graphs have no update epochs or snapshot pins, so both are ignored.
func (e *LocalEnv) AppendEdges(dst []graph.Edge, t graph.EdgeType, n int, _ *sampling.Pin, _ *sampling.EpochSpan) ([]graph.Edge, error) {
	return e.trav.AppendEdges(dst, t, n), nil
}

// ObservedEpoch implements TrainEnv: an in-memory graph never advances.
func (e *LocalEnv) ObservedEpoch() uint64 { return 0 }

// NegativePool implements TrainEnv.
func (e *LocalEnv) NegativePool(t graph.EdgeType) ([]graph.ID, []float64, error) {
	cands, counts := sampling.NegativePoolOf(e.G, t)
	return cands, counts, nil
}

// NumVertices implements TrainEnv.
func (e *LocalEnv) NumVertices() int { return e.G.NumVertices() }

// LinkTrainer trains an Encoder on unsupervised link prediction with
// negative sampling: edges of the target type are positives, NEGATIVE
// sampling provides negatives, and the score of a pair is the dot product
// of their encoded embeddings. This is the training loop that Sections 3.3
// and 4.1 sketch (TRAVERSE batch -> NEIGHBORHOOD context -> NEGATIVE
// samples -> AGGREGATE/COMBINE forward -> backward).
//
// The trainer never touches a graph directly: neighbor expansion goes
// through the batch-first sampling.Source seam and everything else through
// TrainEnv, so the same loop drives a local graph or live RPC shards.
//
// Batch production and consumption are decoupled: a BatchSource assembles
// MiniBatches (a Pipeline: inline at depth 0, ahead of the consumer on
// worker goroutines above it) and Step consumes one — forward, loss,
// backward, optimizer — without doing any sampling of its own. Train and
// StepNext tie the two together.
type LinkTrainer struct {
	Env      TrainEnv
	Src      sampling.Source
	Enc      *Encoder
	EdgeType graph.EdgeType
	HopNums  []int
	Batch    int
	NegK     int
	Opt      nn.Optimizer
	Rng      *rand.Rand

	// ContextFn, when non-nil, overrides NEIGHBORHOOD sampling (FastGCN's
	// layer-wise sampling swaps the SAMPLE strategy this way). Batch
	// assembly calls it for Src, Dst and Negs right after drawing them, and
	// the batch carries its contexts like any other; ContextFn closures are
	// not required to be goroutine-safe, so they are incompatible with a
	// Pipeline deeper than 0. Inference (Embed, EmbedAll) calls it too.
	ContextFn func(vs []graph.ID) (*sampling.Context, error)

	// NegRefresh, when positive, rebuilds the negative pool from a fresh
	// NegativePool call whenever the environment's observed head epoch has
	// advanced by at least NegRefresh since the pool was last built — on a
	// streaming graph the pool would otherwise stay frozen at construction
	// time forever. The rebuild consumes zero rng draws, so refreshed and
	// unrefreshed runs stay draw-aligned.
	NegRefresh uint64

	nbr *sampling.Neighborhood
	neg *sampling.Negative

	negEpoch    uint64 // observed head when the pool was last (re)built
	negRebuilds atomic.Int64

	// source produces the trainer's batches; nil until first use, when the
	// depth-0 source is installed. It owns the training random streams;
	// inference never touches them: Embed/Score/EmbedAll sample from a
	// per-call fixed-seed stream, so they are safe for concurrent callers
	// and repeatable call over call.
	source BatchSource

	prefetch    PrefetchingFeatures
	prefetchSet bool
}

// inferenceSeed seeds the per-call inference sampling stream (any fixed
// constant works; inference must simply be deterministic and race-free —
// every Embed/Score call starts its own stream here, so concurrent calls
// never contend and identical inputs sample identical contexts).
const inferenceSeed = 0xA1160A1160A11601

// TrainerConfig bundles LinkTrainer construction options.
type TrainerConfig struct {
	EdgeType graph.EdgeType
	HopNums  []int
	Batch    int
	NegK     int
	LR       float64
	// NegRefresh is the epoch-staleness threshold for negative-pool
	// rebuilds; 0 (the default) keeps the historical frozen pool.
	NegRefresh uint64
}

// DefaultTrainerConfig returns sensible defaults for the laptop-scale
// benchmarks.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{HopNums: []int{5, 3}, Batch: 64, NegK: 4, LR: 0.01}
}

// NewLinkTrainer assembles the trainer over a local in-memory graph.
func NewLinkTrainer(g *graph.Graph, enc *Encoder, cfg TrainerConfig, rng *rand.Rand) *LinkTrainer {
	tr, err := NewLinkTrainerOver(NewLocalEnv(g, rng), sampling.NewGraphSource(g), enc, cfg, rng)
	if err != nil {
		// LocalEnv never fails; keep the historical infallible signature.
		panic(err)
	}
	return tr
}

// NewLinkTrainerOver assembles the trainer over any neighbor Source and
// TrainEnv pair — the seam that lets distributed GraphSAGE training run on
// live RPC shards.
func NewLinkTrainerOver(env TrainEnv, src sampling.Source, enc *Encoder, cfg TrainerConfig, rng *rand.Rand) (*LinkTrainer, error) {
	cands, counts, err := env.NegativePool(cfg.EdgeType)
	if err != nil {
		return nil, err
	}
	tr := &LinkTrainer{
		Env: env, Src: src, Enc: enc, EdgeType: cfg.EdgeType, HopNums: cfg.HopNums,
		Batch: cfg.Batch, NegK: cfg.NegK, NegRefresh: cfg.NegRefresh,
		Opt: nn.NewAdam(cfg.LR), Rng: rng,
		nbr: sampling.NewNeighborhood(src, rng),
		neg: sampling.NewNegativeFromPool(cands, sampling.UnigramWeights(counts), rng),
	}
	tr.negEpoch = env.ObservedEpoch()
	return tr, nil
}

// NegRebuilds reports how many times the negative pool has been rebuilt by
// the epoch-refresh policy (diagnostics and tests).
func (tr *LinkTrainer) NegRebuilds() int64 { return tr.negRebuilds.Load() }

// maybeRefreshNegatives rebuilds the negative pool when the environment's
// observed head epoch has outrun the pool by at least NegRefresh. Called
// from assembleEdges on the goroutine that owns the training streams, after
// the edge batch succeeds and before negatives are drawn: the rebuild
// consumes no rng draws (the alias table is deterministic in the pool), so
// the negative draw stream continues uninterrupted over the new pool. A
// fetch failure is returned like any other: a transient one parks the batch,
// whose replay keeps its edge seed and has drawn no negative yet, so it
// refreshes and draws exactly as a fault-free run does.
func (tr *LinkTrainer) maybeRefreshNegatives() error {
	if tr.NegRefresh == 0 {
		return nil
	}
	h := tr.Env.ObservedEpoch()
	if h < tr.negEpoch+tr.NegRefresh {
		return nil
	}
	cands, counts, err := tr.Env.NegativePool(tr.EdgeType)
	if err != nil {
		return err
	}
	tr.neg = sampling.NewNegativeFromPool(cands, sampling.UnigramWeights(counts), tr.neg.Rng)
	tr.negEpoch = h
	tr.negRebuilds.Add(1)
	return nil
}

// Source returns the trainer's batch producer, installing the depth-0
// source (NewSyncSource) on first use.
func (tr *LinkTrainer) Source() BatchSource {
	if tr.source == nil {
		tr.source = NewSyncSource(tr)
	}
	return tr.source
}

// SetSource installs a batch producer (a Pipeline). Call it before the
// first training step — the producer takes over the trainer's sequential
// random streams — and manage the source's lifecycle yourself (Close a
// Pipeline when training ends).
func (tr *LinkTrainer) SetSource(s BatchSource) {
	tr.source = s
}

// prefetcher returns the feature source's prefetching capability, if any.
func (tr *LinkTrainer) prefetcher() PrefetchingFeatures {
	if !tr.prefetchSet {
		tr.prefetch = FindPrefetcher(tr.Enc.Features)
		tr.prefetchSet = true
	}
	return tr.prefetch
}

// Step consumes one assembled MiniBatch: three encodes of its contexts,
// the negative-sampling loss, backward, gradient clip and optimizer step.
// The source, destination and negative contexts are encoded on three forks
// of the step's tape (nn.Tape.Fork), one goroutine each, and the forks also
// run their backward passes concurrently; the loss head is recorded on the
// parent. The losses and parameters are bit-identical to three encodes on
// one tape. All sampling happened at batch-assembly time; Step itself
// performs pure compute, which is exactly what a prefetching source
// overlaps with the next batches' sampling.
func (tr *LinkTrainer) Step(mb *MiniBatch) (float64, error) {
	if pf := tr.prefetcher(); pf != nil && mb.Attrs != nil {
		pf.ServePrefetched(mb.Attrs)
		defer pf.ServePrefetched(nil)
	}

	t := nn.NewTape()
	var h [3]*nn.Node
	var wg sync.WaitGroup
	for i := range h {
		f := t.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			h[i] = tr.Enc.Encode(f, &mb.Ctxs[i])
		}()
	}
	wg.Wait()
	hs, hd, hn := h[0], h[1], h[2]

	// Repeat each source NegK times to align with its negatives.
	rep := make([]int, len(mb.Negs))
	for i := range rep {
		rep[i] = i / tr.NegK
	}
	hsRep := t.Gather(hs, rep)

	pos := t.RowDot(hs, hd)
	neg := t.RowDot(hsRep, hn)
	loss := t.NegSamplingLoss(pos, neg)
	t.Backward(loss)

	params := tr.Enc.Params()
	nn.ClipGrad(params, 5.0)
	tr.Opt.Step(params)
	return loss.Val.Data[0], nil
}

// StepNext pulls one batch from the trainer's source, steps on it and
// recycles it.
func (tr *LinkTrainer) StepNext() (float64, error) {
	src := tr.Source()
	mb, err := src.Next()
	if err != nil {
		return 0, err
	}
	l, err := tr.Step(mb)
	src.Recycle(mb)
	return l, err
}

// Train runs n steps and returns per-step losses.
func (tr *LinkTrainer) Train(steps int) ([]float64, error) {
	losses := make([]float64, steps)
	for i := range losses {
		l, err := tr.StepNext()
		if err != nil {
			return nil, err
		}
		losses[i] = l
	}
	return losses, nil
}

// encodeInference samples a context for vs (ContextFn or a per-call
// fixed-seed inference stream) and encodes it; used by Embed/Score/
// EmbedAll. All state is call-local — a fresh Context and a fresh Rng
// seeded with inferenceSeed — so concurrent callers never share buffers
// or streams, and the same vs always samples the same context. A feature
// source that failed to fetch its rows fails the call (nn.Tape.Err).
func (tr *LinkTrainer) encodeInference(t *nn.Tape, vs []graph.ID) (*nn.Node, *sampling.Context, error) {
	var ctx *sampling.Context
	if tr.ContextFn != nil {
		var err error
		if ctx, err = tr.ContextFn(vs); err != nil {
			return nil, nil, err
		}
	} else {
		ctx = new(sampling.Context)
		if err := tr.nbr.SampleInto(ctx, tr.EdgeType, vs, tr.HopNums, sampling.NewRng(inferenceSeed)); err != nil {
			return nil, nil, err
		}
	}
	h := tr.Enc.Encode(t, ctx)
	if err := t.Err(); err != nil {
		return nil, nil, err
	}
	return h, ctx, nil
}

// Embed encodes vertices for inference (no gradient is consumed). Safe for
// concurrent callers when ContextFn is nil (or the ContextFn itself is
// goroutine-safe), and deterministic: the same vs yield the same rows.
// Inference must not overlap a training Step — the encoder's feature
// source may hold per-step prefetch state.
func (tr *LinkTrainer) Embed(vs []graph.ID) (*tensor.Matrix, error) {
	m, _, err := tr.EmbedCtx(vs)
	return m, err
}

// EmbedCtx is Embed plus the sampled neighborhood context the embeddings
// were computed from. The context is freshly allocated per call and owned
// by the caller; a serving tier uses it to register each input vertex's
// sampled dependency set for cache invalidation.
func (tr *LinkTrainer) EmbedCtx(vs []graph.ID) (*tensor.Matrix, *sampling.Context, error) {
	t := nn.NewTape()
	h, ctx, err := tr.encodeInference(t, vs)
	if err != nil {
		return nil, nil, err
	}
	return h.Val.Clone(), ctx, nil
}

// Score returns the dot-product link score of (u, v). Safe for concurrent
// callers under the same conditions as Embed.
func (tr *LinkTrainer) Score(u, v graph.ID) (float64, error) {
	m, err := tr.Embed([]graph.ID{u, v})
	if err != nil {
		return 0, err
	}
	s := 0.0
	for j := 0; j < m.Cols; j++ {
		s += float64(m.At(0, j) * m.At(1, j))
	}
	return s, nil
}

// EmbedAll encodes every vertex in id order (n x d); used by evaluation and
// by the export tooling. Safe for concurrent callers under the same
// conditions as Embed.
func (tr *LinkTrainer) EmbedAll() (*tensor.Matrix, error) {
	n := tr.Env.NumVertices()
	out := tensor.New(n, tr.Enc.OutDim())
	const chunk = 256
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		vs := make([]graph.ID, hi-lo)
		for i := range vs {
			vs[i] = graph.ID(lo + i)
		}
		m, err := tr.Embed(vs)
		if err != nil {
			return nil, err
		}
		for i := 0; i < m.Rows; i++ {
			copy(out.Row(lo+i), m.Row(i))
		}
	}
	return out, nil
}
