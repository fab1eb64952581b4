package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// MiniBatch is one fully assembled training batch: the positive edge
// endpoints from TRAVERSE, the aligned negatives, the three sampled
// NEIGHBORHOOD contexts, and (on clusters) prefetched hop-0 attribute rows.
// Decoupling its production from its consumption is what lets a Pipeline
// overlap graph-service latency with the GNN forward/backward pass
// (Section 4.1's sampling/training overlap).
//
// MiniBatches are recycled: sources hand them out from Next and take them
// back through Recycle, reusing every internal buffer, so steady-state
// batch assembly over a local graph performs no per-batch allocation.
type MiniBatch struct {
	// Src and Dst are the endpoints of the TRAVERSE edge batch; Negs holds
	// NegK negatives per source vertex, flattened batch-major.
	Src, Dst, Negs []graph.ID
	// Ctxs are the sampled multi-hop contexts of Src, Dst and Negs, in that
	// order: NEIGHBORHOOD expansions, or the trainer's ContextFn draws.
	Ctxs [3]sampling.Context
	// Attrs maps every vertex appearing in the contexts to its prefetched
	// hop-0 attribute row; nil when the feature source is local (attributes
	// are then read at encode time, as before).
	Attrs map[graph.ID][]float64
	// Epochs spans the server update epochs observed while assembling the
	// batch. Epochs.Mixed() flags a batch that straddles a dynamic update
	// (or shards at different update generations). Batches assembled under
	// a Pin record the pin's single stamp, making Mixed() an invariant
	// rather than a detector: a completed pinned batch is
	// snapshot-consistent by construction.
	Epochs sampling.EpochSpan
	// Pin is the snapshot the batch was assembled against, stamped by the
	// producer at schedule time when the source supports pinning (cluster
	// clients); nil on local graphs. The source releases it on Recycle.
	Pin *sampling.Pin

	seq    uint64
	err    error
	loaned bool      // checked out to the consumer by Pipeline.Next
	outAt  time.Time // when Pipeline.Next handed the batch out (consume timing)
	edges  []graph.Edge
	seeds  [3]sampling.Rng
	pvs    []graph.ID // prefetch vertex-list scratch

	// edgeSeed is the batch's TRAVERSE seed, drawn exactly once per batch
	// from a SeededBatchEnv and reused across fault retries so a replayed
	// assembly consumes no extra stream draws (bit-identical losses under
	// transient faults).
	edgeSeed    uint64
	hasEdgeSeed bool
	// planned marks the expansion seeds as drawn; a replay after a lost
	// lease redraws TRAVERSE but reuses them.
	planned bool
}

// dropEdges clears the batch's positives and negatives, so the owner lane
// redraws them on the next attempt.
func (mb *MiniBatch) dropEdges() {
	mb.Src, mb.Dst, mb.Negs = mb.Src[:0], mb.Dst[:0], mb.Negs[:0]
}

// reset clears the batch for reuse, keeping every buffer. The caller is
// responsible for releasing mb.Pin first.
func (mb *MiniBatch) reset() {
	mb.dropEdges()
	mb.Epochs.Reset()
	mb.Pin = nil
	mb.err = nil
	mb.edges = mb.edges[:0]
	mb.hasEdgeSeed = false
	mb.planned = false
}

// BatchSource produces MiniBatches for a LinkTrainer. It is the seam
// between batch production and consumption: a depth-0 Pipeline
// (NewSyncSource) assembles each batch inline on the calling goroutine —
// draw-for-draw identical to the pre-pipeline trainer — while deeper
// Pipelines assemble batches ahead of the consumer on worker goroutines;
// StreamSource interleaves live updates with either. Next never surfaces a
// transient fault or a lost lease: those park or re-pin and replay the
// batch; only a hard error, or Close on a closable source, ends it.
//
// The contract is strict alternation per consumer: call Next, consume the
// batch, hand it back with Recycle, repeat. A recycled batch's buffers are
// reused; the consumer must not retain references past Recycle.
type BatchSource interface {
	// Next returns the next assembled batch.
	Next() (*MiniBatch, error)
	// Recycle returns a batch obtained from Next to the source's free list.
	Recycle(*MiniBatch)
}

// SeededBatchEnv is an optional TrainEnv capability for environments
// whose TRAVERSE draw is a pure function of an explicit seed (cluster
// clients). Batch sources draw EdgeSeed exactly once per batch and replay
// AppendEdgesSeeded with it on fault retries, so a retried TRAVERSE
// consumes no extra positions of the sequential edge-seed stream — without
// it, every retry would shift all subsequent draws and a fault-free run
// could never be reproduced bit for bit. Local graphs, whose draws cannot
// fail, keep the plain AppendEdges path and its draw sequence.
type SeededBatchEnv interface {
	// EdgeSeed draws the next TRAVERSE seed from the sequential stream.
	EdgeSeed() uint64
	// AppendEdgesSeeded is AppendEdges driven by an explicit seed.
	AppendEdgesSeeded(dst []graph.Edge, t graph.EdgeType, n int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error)
}

// assembleEdges fills mb.Src/Dst/Negs from one TRAVERSE batch plus aligned
// negatives, reading mb.Pin's snapshot when set and recording what the
// environment observed into mb.Epochs. It draws from tr.Rng (via the
// environment and the negative sampler) and must therefore run on the
// goroutine that owns that stream: the Pipeline's owner lane.
func (tr *LinkTrainer) assembleEdges(mb *MiniBatch) error {
	var edges []graph.Edge
	var err error
	if se, ok := tr.Env.(SeededBatchEnv); ok {
		// The seed is drawn once per batch and survives fault retries: a
		// replayed TRAVERSE re-reads the same draw instead of consuming a
		// fresh stream position.
		if !mb.hasEdgeSeed {
			mb.edgeSeed = se.EdgeSeed()
			mb.hasEdgeSeed = true
		}
		edges, err = se.AppendEdgesSeeded(mb.edges[:0], tr.EdgeType, tr.Batch, mb.edgeSeed, mb.Pin, &mb.Epochs)
	} else {
		edges, err = tr.Env.AppendEdges(mb.edges[:0], tr.EdgeType, tr.Batch, mb.Pin, &mb.Epochs)
	}
	if err != nil {
		return err
	}
	// Refresh the negative pool before drawing negatives, never after: the
	// rebuild consumes zero rng draws, so doing it here keeps the negative
	// stream aligned draw for draw with a run that never refreshed.
	if err := tr.maybeRefreshNegatives(); err != nil {
		return err
	}
	mb.edges = edges
	for _, e := range edges {
		mb.Src = append(mb.Src, e.Src)
		mb.Dst = append(mb.Dst, e.Dst)
	}
	mb.Negs = tr.neg.AppendSample(mb.Negs[:0], mb.Src, tr.NegK)
	return nil
}

// drawContexts fills mb.Ctxs from the trainer's ContextFn — Src, Dst, then
// Negs — in place of the NEIGHBORHOOD expansions. Layer-wise samplers draw
// from the trainer's streams, so like assembleEdges it runs on the owner
// lane, right after the positives and negatives it expands.
func (tr *LinkTrainer) drawContexts(mb *MiniBatch) error {
	for e, vs := range [3][]graph.ID{mb.Src, mb.Dst, mb.Negs} {
		ctx, err := tr.ContextFn(vs)
		if err != nil {
			return err
		}
		mb.Ctxs[e] = *ctx
	}
	return nil
}

// NewSyncSource creates the depth-0 BatchSource for tr: a Pipeline that
// starts no goroutines and assembles one batch inline per Next call, on the
// caller's goroutine, using the trainer's own samplers and random streams.
// For a fixed seed it reproduces the pre-pipeline trainer's training losses
// bit for bit — the reference every deeper Pipeline is validated against.
// A trainer installs one automatically on first use; constructing one
// explicitly is only needed to drive Step by hand, or to hold the Close
// that ends a batch parked on an unreachable shard.
func NewSyncSource(tr *LinkTrainer) *Pipeline {
	return NewPipeline(tr, PipelineConfig{})
}
