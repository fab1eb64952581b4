// Package aligraph is the public API of this AliGraph reproduction: a
// comprehensive graph neural network platform with distributed graph
// storage, optimized sampling operators (TRAVERSE / NEIGHBORHOOD /
// NEGATIVE), AGGREGATE/COMBINE operators with intermediate-vector
// materialization, and an algorithm layer containing the paper's six
// in-house GNNs and their published baselines.
//
// The three system layers of the paper meet at one seam: the batch-first
// sampling.Source contract, which answers a whole hop of a mini-batch per
// call. They map onto this API as:
//
//   - storage layer:  Platform serves an in-memory graph in one process;
//     ClusterPlatform serves the same contract from live RPC graph shards
//     (partitioning, per-shard attribute rows, importance-based neighbor
//     caching on the client), stitching one sub-batch per owning server
//     and pushing fixed-width draws server-side (the SampleNeighbors RPC),
//     so hub adjacency lists never cross the network.
//   - sampling layer: Platform.Traverse / Neighborhood / Negative locally;
//     on ClusterPlatform, Neighborhood is exposed directly while TRAVERSE
//     and NEGATIVE run inside the trainer as SampleEdges / NegativePool
//     RPCs. NEIGHBORHOOD consumes any Source, which is what makes the two
//     storage backends interchangeable under one training loop.
//   - operator layer: the encoder behind NewGraphSAGE (and every model in
//     internal/algo), fed aligned contexts regardless of where the
//     neighbors came from.
//
// Between the sampling and operator layers sits the mini-batch pipeline
// seam: batches (positives, negatives, sampled contexts, prefetched
// attributes) are produced by a core.BatchSource and consumed by the
// trainer's compute step. TrainConfig.Pipeline enables the prefetching
// implementation, which assembles Depth batches ahead on Workers goroutines
// so graph-service latency hides behind the forward/backward pass (Section
// 4.1) — without perturbing a single random draw relative to synchronous
// training. Cluster workers start graph-free: the partition assignment and
// schema come from the servers' Bootstrap RPC, hot neighbor lists from the
// pluggable neighbor cache, and attribute rows from the shards, read at
// each batch's pin by the batched Attrs RPC.
//
// Underneath the cluster storage layer sits internal/version, a
// multi-version snapshot store: each server holds an immutable base
// adjacency plus per-epoch delta overlays in a bounded ring with
// lease-based GC, so ServeUpdate batches apply atomically as new epochs
// while in-flight readers keep their snapshots. Batch producers pin the
// snapshot current at schedule time (Lease/Release RPCs behind
// sampling.PinSource) and every stage of a mini-batch reads it, which
// makes MiniBatch.Epochs.Mixed() an invariant violation rather than a
// detector — training on a live, streaming graph stays
// snapshot-consistent. Trainer.StreamUpdates (and aligraph-train -stream)
// interleaves a live UpdateFeed with training batches on that machinery.
//
// Above the trainer sits the online serving tier (internal/serve, surfaced
// as ClusterPlatform.Serve / Platform.Serve and the aligraph-serve command):
// forward-only embedding, link-score and top-k lookups. Concurrent requests
// coalesce into one deduplicated encoder mini-batch per flush window;
// computed embeddings enter an epoch-aware cache keyed by their sampled
// dependency sets. Updates applied through the tier invalidate exactly the
// cached k-hop in-neighborhood of the touched vertices, and every other
// entry stays current; updates applied behind the tier's back age entries
// past a bounded lag of every shard's newest epoch, after which they are
// re-embedded. A background refresher probes shard heads and re-embeds hot
// invalidated or lag-expired vertices ahead of demand.
//
// Observability (internal/obs) is always on and shared by every layer: the
// cluster client keeps per-(edge type, hop) sampling lanes (time, RPC fan-out,
// cache hit / epoch-miss rates per hop), servers time every RPC handler
// and compaction fold, the pipeline times each batch-lifecycle
// stage (schedule / sample / prefetch / consume, plus park and replay
// counts), and the serving tier folds its counters into the same registry.
// Instruments are lock-free atomics and log-bucketed histograms owned
// directly by the hot paths — recording costs a clock read and a few atomic
// adds, never an allocation or a lock, and never touches a random stream, so
// deterministic training stays bit-identical with instrumentation on. A
// registry names the instruments for one process; obs.Serve exposes its
// snapshot over HTTP (text at /metrics, JSON at /metrics.json, pprof under
// /debug/pprof/) — every shipped binary takes -metrics-addr. Register a
// trainer with Trainer.RegisterObs, a client with cluster.Client.RegisterObs,
// a server with cluster.Server.RegisterObs, the serving tier with
// serve.Server.RegisterObs.
//
// See examples/ for runnable end-to-end programs; examples/distributed
// trains GraphSAGE against TCP shards while streaming updates into
// them, and examples/serving runs the inference tier over live shards under
// churn.
package aligraph

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Re-exported core data-model types. IDs are dense int64s; schemas name the
// vertex and edge types of an attributed heterogeneous graph (AHG).
type (
	// Graph is an immutable CSR-backed attributed heterogeneous graph.
	Graph = graph.Graph
	// Builder accumulates vertices and edges and produces a Graph.
	Builder = graph.Builder
	// Schema names vertex and edge types.
	Schema = graph.Schema
	// ID identifies a vertex.
	ID = graph.ID
	// VertexType indexes a schema vertex type.
	VertexType = graph.VertexType
	// EdgeType indexes a schema edge type.
	EdgeType = graph.EdgeType
	// Dynamic is a snapshot series G^(1)..G^(T).
	Dynamic = graph.Dynamic
	// Matrix is the dense embedding matrix type.
	Matrix = tensor.Matrix
)

// NewSchema creates a schema from vertex- and edge-type names.
func NewSchema(vertexTypes, edgeTypes []string) (*Schema, error) {
	return graph.NewSchema(vertexTypes, edgeTypes)
}

// NewBuilder creates a graph builder.
func NewBuilder(s *Schema, directed bool) *Builder { return graph.NewBuilder(s, directed) }

// Platform serves one in-memory graph to the sampling and training layers:
// the graph, one shared batch Source over it, and a seeded generator that
// hands every sampler and model its own rng. It is the single-process
// counterpart of ClusterPlatform; partitioning and neighbor caching belong
// to the sharded path, where there are remote fetches to save.
type Platform struct {
	G *Graph

	src *sampling.GraphSource // shared batch Source
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPlatform serves g with every platform random draw seeded by seed. It
// builds nothing per vertex: its cost does not grow with the graph.
func NewPlatform(g *Graph, seed int64) *Platform {
	return &Platform{
		G:   g,
		src: sampling.NewGraphSource(g),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// newRng derives an independently seeded rand.Rand under the platform
// lock. Every sampler handed out gets its own generator, so samplers
// created from one Platform can be used concurrently without sharing
// unsynchronized rng state.
func (p *Platform) newRng() *rand.Rand {
	p.mu.Lock()
	defer p.mu.Unlock()
	return rand.New(rand.NewSource(p.rng.Int63()))
}

// Traverse returns a TRAVERSE sampler over the platform's graph.
func (p *Platform) Traverse() *sampling.Traverse { return sampling.NewTraverse(p.G, p.newRng()) }

// Neighborhood returns a NEIGHBORHOOD sampler. All samplers share the
// platform's GraphSource.
func (p *Platform) Neighborhood() *sampling.Neighborhood {
	return sampling.NewNeighborhood(p.src, p.newRng())
}

// Negative returns a NEGATIVE sampler for edge type t.
func (p *Platform) Negative(t EdgeType) *sampling.Negative {
	return sampling.NewNegative(p.G, t, p.newRng())
}

// PipelineConfig tunes the prefetching mini-batch pipeline: Depth batches
// are assembled ahead of the consumer by Workers goroutines, overlapping
// TRAVERSE/NEGATIVE/NEIGHBORHOOD sampling (and, on clusters, the batched
// attribute prefetch) with the GNN forward/backward pass. Depth 0
// assembles each batch inline on the training goroutine, which reproduces
// pre-pipeline training losses bit for bit for a fixed seed — as does any
// Depth/Workers setting, because batch assembly draws its randomness in
// sequence order.
type PipelineConfig = core.PipelineConfig

// TrainConfig tunes Platform.NewGraphSAGE training.
type TrainConfig struct {
	Dim      int
	HopNums  []int
	Batch    int
	NegK     int
	LR       float64
	EdgeType EdgeType
	// UseAttrs concatenates raw vertex attributes with the learnable table.
	UseAttrs bool
	AttrDim  int
	// Pipeline sets the batch source: asynchronous prefetching when
	// Depth > 0, inline assembly at Depth 0.
	Pipeline PipelineConfig
	// NegRefresh rebuilds the negative pool whenever the observed cluster
	// head epoch advances by at least this many epochs; 0 keeps the pool
	// frozen at construction (the historical behavior, and the only option
	// on local platforms, which have no update epochs).
	NegRefresh uint64
}

// DefaultTrainConfig returns laptop-scale defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Dim: 32, HopNums: []int{5, 3}, Batch: 64, NegK: 4, LR: 0.02}
}

// Trainer wraps the Algorithm 1 encoder with the unsupervised
// link-prediction objective.
type Trainer struct {
	inner *core.LinkTrainer
	pl    *core.Pipeline // the batch source (inside a stream source after StreamUpdates)
	// releasePins, set on cluster trainers, drops the client's idle
	// snapshot leases so a finished training session does not pin an epoch
	// on long-running servers forever.
	releasePins func()
}

// Close stops the batch pipeline — ending a batch parked on an unreachable
// shard — and releases the session's idle snapshot leases. Idempotent.
func (t *Trainer) Close() error {
	err := t.pl.Close()
	if t.releasePins != nil {
		t.releasePins()
	}
	return err
}

// RegisterObs names the trainer's batch-pipeline instruments (per-stage
// latency histograms, park/replay counters, ring occupancy) in r under
// core.pipeline.*; cluster sampling metrics live on the client — register
// those via cluster.Client.RegisterObs.
func (t *Trainer) RegisterObs(r *obs.Registry) {
	t.pl.RegisterObs(r)
}

// withPipeline installs the batch source cfg asks for.
func withPipeline(tr *Trainer, cfg TrainConfig) *Trainer {
	tr.pl = core.NewPipeline(tr.inner, cfg.Pipeline)
	tr.inner.SetSource(tr.pl)
	return tr
}

// newSAGEEncoder assembles the GraphSAGE-style encoder shared by both
// platforms: mean AGGREGATE, concat COMBINE, materialization enabled.
func newSAGEEncoder(feat core.FeatureSource, cfg TrainConfig, rng *rand.Rand) *core.Encoder {
	enc := &core.Encoder{Features: feat, Materialize: true}
	in := feat.Dim()
	for k := range cfg.HopNums {
		agg := operator.NewMeanAggregator("agg", in, cfg.Dim, rng)
		enc.Agg = append(enc.Agg, agg)
		act := nn.ActReLU
		if k == len(cfg.HopNums)-1 {
			act = nn.ActIdentity // linear output layer
		}
		enc.Comb = append(enc.Comb, operator.NewConcatCombinerAct("comb", in, cfg.Dim, cfg.Dim, act, rng))
		in = cfg.Dim
	}
	return enc
}

// NewGraphSAGE assembles a GraphSAGE-style model on the platform.
func (p *Platform) NewGraphSAGE(cfg TrainConfig) *Trainer {
	rng := p.newRng()
	var feat core.FeatureSource = core.NewTableFeatures("emb", p.G.NumVertices(), cfg.Dim, rng)
	if cfg.UseAttrs {
		ad := cfg.AttrDim
		if ad == 0 {
			ad = 16
		}
		feat = &core.ConcatFeatures{Srcs: []core.FeatureSource{core.NewAttrFeatures(p.G, ad), feat}}
	}
	enc := newSAGEEncoder(feat, cfg, rng)
	tc := core.TrainerConfig{EdgeType: cfg.EdgeType, HopNums: cfg.HopNums, Batch: cfg.Batch, NegK: cfg.NegK, LR: cfg.LR}
	inner, err := core.NewLinkTrainerOver(core.NewLocalEnv(p.G, rng), p.src, enc, tc, rng)
	if err != nil {
		panic(err) // local env never fails
	}
	return withPipeline(&Trainer{inner: inner}, cfg)
}

// ---------------------------------------------------------------------------
// Distributed platform

// ClusterPlatform is the distributed counterpart of Platform: the same
// sampling and training seams, served by graph shards behind a
// cluster.Transport (in-process servers or live TCP shards) through a routing,
// caching cluster.Client. Because the client implements the batch-first
// sampling.Source contract, every layer above it — NEIGHBORHOOD sampling,
// the encoder, the link trainer — is byte-for-byte the code that runs
// locally.
type ClusterPlatform struct {
	Client *cluster.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClusterPlatform wires a worker's view of a sharded graph: assign maps
// vertices to partitions, t reaches the per-partition servers, and cache
// (nil to disable) short-circuits remote hops per Section 3.2.
func NewClusterPlatform(assign *partition.Assignment, t cluster.Transport, cache storage.NeighborCache, seed int64) *ClusterPlatform {
	return &ClusterPlatform{
		Client: cluster.NewClient(assign, t, cache),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (p *ClusterPlatform) newRng() *rand.Rand {
	p.mu.Lock()
	defer p.mu.Unlock()
	return rand.New(rand.NewSource(p.rng.Int63()))
}

// NumVertices reports the size of the sharded graph's vertex universe.
func (p *ClusterPlatform) NumVertices() int { return len(p.Client.Assign.Of) }

// Neighborhood returns a NEIGHBORHOOD sampler over the cluster: each hop of
// a batch costs at most one SampleNeighbors RPC per owning server.
func (p *ClusterPlatform) Neighborhood() *sampling.Neighborhood {
	return sampling.NewNeighborhood(p.Client, p.newRng())
}

// clusterAttrFeatures serves hop-0 attribute rows through batched Attrs
// RPCs (with per-server sub-batching and dedup in the client). No row is
// kept between fetches: a pinned prefetch reads its pin's rows and a head
// read reads the head, so no update can leave a stale row behind. The
// feature interface has no error path, so a failed fetch is recorded on
// the tape (nn.Tape.Fail), and inference returns it instead of a vector
// encoded from zero rows. Training never fetches here: the batch pipeline
// prefetches every row at the batch's pin and parks the batch when that
// fetch fails.
//
// It implements core.PrefetchingFeatures: the prefetch pipeline fetches a
// future batch's rows on its worker goroutines and the trainer serves them
// at encode time, so attribute RPC latency hides behind compute.
//
// Rows is safe for the concurrent calls of one training step: it only reads
// the installed prefetched map, which is swapped between steps, and its
// fallback fetch goes through the concurrency-safe client.
type clusterAttrFeatures struct {
	fetch *cluster.Client
	d     int

	// prefetched, when set, answers Rows without touching the network
	// (installed around one batch's encodes by the consuming goroutine).
	prefetched map[ID][]float64
}

func (f *clusterAttrFeatures) Dim() int { return f.d }

func (f *clusterAttrFeatures) Rows(t *nn.Tape, vs []ID) *nn.Node {
	m := tensor.New(len(vs), f.d)
	fill := func(i int, a []float64) {
		row := m.Row(i)
		for j := 0; j < len(a) && j < f.d; j++ {
			row[j] = a[j]
		}
	}
	// Serve what the batch prefetched; anything missing (contexts the
	// pipeline did not prefetch, e.g. a ContextFn trainer's) falls through
	// to one batched fetch.
	var missing []ID
	var missingIdx []int
	for i, v := range vs {
		if a, ok := f.prefetched[v]; ok {
			fill(i, a)
			continue
		}
		missing = append(missing, v)
		missingIdx = append(missingIdx, i)
	}
	if len(missing) > 0 {
		attrs, err := f.fetch.Attrs(missing)
		if err != nil {
			t.Fail(err)
		}
		for k, a := range attrs {
			fill(missingIdx[k], a)
		}
	}
	return t.Input(m)
}

func (f *clusterAttrFeatures) Params() []*nn.Param { return nil }

// PrefetchAttrs implements core.PrefetchingFeatures; safe for concurrent
// use (the client is). Pinned batches read their snapshot's attribute
// rows.
func (f *clusterAttrFeatures) PrefetchAttrs(vs []ID, pin *sampling.Pin, into map[ID][]float64) error {
	attrs, err := f.fetch.AttrsAt(vs, pin)
	if err != nil {
		return err
	}
	for i, v := range vs {
		into[v] = attrs[i]
	}
	return nil
}

// ServePrefetched implements core.PrefetchingFeatures.
func (f *clusterAttrFeatures) ServePrefetched(rows map[ID][]float64) { f.prefetched = rows }

// NewGraphSAGE assembles the same GraphSAGE-style model as
// Platform.NewGraphSAGE, trained end to end against the shards: TRAVERSE
// batches via per-server edge draws, negatives from merged per-server
// destination counts, neighbor expansion via SampleNeighbors RPCs, and
// (with UseAttrs) hop-0 features via batched Attrs RPCs.
func (p *ClusterPlatform) NewGraphSAGE(cfg TrainConfig) (*Trainer, error) {
	rng := p.newRng()
	var feat core.FeatureSource = core.NewTableFeatures("emb", p.NumVertices(), cfg.Dim, rng)
	if cfg.UseAttrs {
		ad := cfg.AttrDim
		if ad == 0 {
			ad = 16
		}
		feat = &core.ConcatFeatures{Srcs: []core.FeatureSource{&clusterAttrFeatures{fetch: p.Client, d: ad}, feat}}
	}
	enc := newSAGEEncoder(feat, cfg, rng)
	tc := core.TrainerConfig{EdgeType: cfg.EdgeType, HopNums: cfg.HopNums, Batch: cfg.Batch, NegK: cfg.NegK, LR: cfg.LR, NegRefresh: cfg.NegRefresh}
	p.mu.Lock()
	envSeed := p.rng.Int63()
	p.mu.Unlock()
	inner, err := core.NewLinkTrainerOver(cluster.NewEnv(p.Client, envSeed), p.Client, enc, tc, rng)
	if err != nil {
		return nil, fmt.Errorf("aligraph: cluster trainer: %w", err)
	}
	return withPipeline(&Trainer{inner: inner, releasePins: p.Client.ReleaseIdlePins}, cfg), nil
}

// UpdateFeed supplies live graph mutations to a streaming trainer; see
// core.UpdateFeed and cluster.UpdateStream.
type UpdateFeed = core.UpdateFeed

// StreamConfig tunes how a streaming trainer interleaves updates with
// training batches.
type StreamConfig = core.StreamConfig

// NewUpdateStream creates the platform's live-update feed: Push (or
// PushEdges) mutation batches onto it from any goroutine, and a trainer
// with StreamUpdates installed applies them between training batches.
func (p *ClusterPlatform) NewUpdateStream() *cluster.UpdateStream {
	return cluster.NewUpdateStream(p.Client.T)
}

// StreamUpdates turns the trainer into a live-graph trainer: pending update
// batches from feed are applied between training batches (cfg controls the
// cadence), training reads keep their per-batch snapshot pins, and every
// completed batch remains snapshot-consistent while the graph changes
// underneath. Call before training starts. Returns the installed stream
// source (its Applied counter reports ingest progress).
func (t *Trainer) StreamUpdates(feed UpdateFeed, cfg StreamConfig) *core.StreamSource {
	ss := core.NewStreamSource(t.inner.Source(), feed, cfg)
	t.inner.SetSource(ss)
	return ss
}

// Train runs steps mini-batches and returns the per-step losses.
func (t *Trainer) Train(steps int) ([]float64, error) { return t.inner.Train(steps) }

// Embed returns embeddings for the given vertices.
func (t *Trainer) Embed(vs []ID) (*Matrix, error) { return t.inner.Embed(vs) }

// EmbedCtx is Embed plus the sampled neighborhood context the embeddings
// were computed from; the serving tier records it as each embedding's
// dependency set for scoped cache invalidation.
func (t *Trainer) EmbedCtx(vs []ID) (*Matrix, *sampling.Context, error) { return t.inner.EmbedCtx(vs) }

// EmbedAll returns embeddings for every vertex in ID order.
func (t *Trainer) EmbedAll() (*Matrix, error) { return t.inner.EmbedAll() }

// Score returns the dot-product link score of (u, v).
func (t *Trainer) Score(u, v ID) (float64, error) { return t.inner.Score(u, v) }

// ---------------------------------------------------------------------------
// Online serving tier

// Serving-tier re-exports; see internal/serve for the full semantics.
type (
	// ServeConfig tunes the inference tier (flush window, batch cap,
	// staleness budget, cache capacity, refresher cadence).
	ServeConfig = serve.Config
	// InferenceServer answers coalesced Embed / Score / TopK lookups over
	// a trained encoder with epoch-aware embedding caching.
	InferenceServer = serve.Server
	// ServeStats snapshots the tier's counters.
	ServeStats = serve.Stats
	// Scored is one TopK result.
	Scored = serve.Scored
)

// Serve starts the online inference tier over a trained model: concurrent
// lookups coalesce into pipelined encoder mini-batches, cached embeddings
// are served while provably fresh against the shards' update epochs, and
// updates pushed through InferenceServer.ApplyUpdate invalidate exactly the
// touched vertices' cached in-neighborhoods. Close the returned server
// before the trainer. Inference must not overlap a training Step.
func (p *ClusterPlatform) Serve(t *Trainer, cfg ServeConfig) *InferenceServer {
	return serve.New(t.inner, p.Client, cfg)
}

// Serve starts the inference tier over a local in-memory platform. The
// in-process graph is immutable, so cached embeddings never expire and no
// validity tracking runs; coalescing and the LRU cache still apply.
func (p *Platform) Serve(t *Trainer, cfg ServeConfig) *InferenceServer {
	return serve.New(t.inner, nil, cfg)
}
