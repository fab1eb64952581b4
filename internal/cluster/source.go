package cluster

import (
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// Client itself implements the batch-first sampling.Source seam (and its
// PinSource capability), so NEIGHBORHOOD sampling pays at most one
// SampleNeighbors RPC per owning server per hop. This file holds the one
// remaining adapter: the trainer environment (core.TrainEnv) that lets
// core.LinkTrainer run its TRAVERSE and NEGATIVE stages against live
// shards.

// Env adapts a Client to core.TrainEnv: positive edges come from the
// distributed TRAVERSE (SampleEdges RPCs), the negative pool is merged
// from per-server destination counts, the vertex universe is the
// partition assignment's domain, and the observed epoch is the newest
// shard head. Env is safe for concurrent use.
type Env struct {
	C *Client

	mu  sync.Mutex
	rng *rand.Rand
}

// NewEnv creates a trainer environment over c; seed drives edge-batch
// randomness.
func NewEnv(c *Client, seed int64) *Env {
	return &Env{C: c, rng: rand.New(rand.NewSource(seed))}
}

// AppendEdges implements core.TrainEnv: n positive edges of type t drawn
// uniformly over the cluster into a recycled buffer, reading the pinned
// snapshot when the batch carries one, with each contributing server's
// reply recorded into span so mini-batches are stamped with what their
// edge batch saw.
func (e *Env) AppendEdges(dst []graph.Edge, t graph.EdgeType, n int, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	return e.C.AppendSampleEdges(dst, t, n, e.EdgeSeed(), pin, span)
}

// EdgeSeed implements core.SeededBatchEnv: one draw from the sequential
// edge-seed stream. Batch sources draw it exactly once per batch and reuse
// it across retries, so a transient fault that forces a TRAVERSE replay
// consumes no extra stream positions — the property behind bit-identical
// losses under injected faults.
func (e *Env) EdgeSeed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return uint64(e.rng.Int63())
}

// AppendEdgesSeeded implements core.SeededBatchEnv: AppendEdges with the
// caller-supplied seed instead of a fresh stream draw.
func (e *Env) AppendEdgesSeeded(dst []graph.Edge, t graph.EdgeType, n int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	return e.C.AppendSampleEdges(dst, t, n, seed, pin, span)
}

// ObservedEpoch implements core.TrainEnv: the newest head epoch observed on
// any shard — the staleness clock that triggers negative-pool refreshes.
func (e *Env) ObservedEpoch() uint64 { return e.C.MaxObservedHead() }

// NegativePool implements core.TrainEnv: global negative candidates with
// in-degree counts.
func (e *Env) NegativePool(t graph.EdgeType) ([]graph.ID, []float64, error) {
	return e.C.NegativePool(t)
}

// NumVertices implements core.TrainEnv: the size of the vertex universe.
func (e *Env) NumVertices() int { return len(e.C.Assign.Of) }
