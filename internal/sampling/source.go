package sampling

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Source is the batch-first contract between NEIGHBORHOOD sampling and
// whatever holds the adjacency: an in-memory graph, a graph-server
// partition, or a distributed client stitching per-server sub-batches
// (Section 3.3). One call covers one whole hop of a mini-batch, which is
// what lets remote implementations dedup hub vertices and pay one round
// trip per owning server instead of one per vertex.
type Source interface {
	// NeighborsBatch fills dst[i] with the out-neighbor list of vs[i] under
	// edge type t; len(dst) must equal len(vs). The returned slices may
	// alias source-owned (or cache-owned) memory and must be treated as
	// read-only by the caller.
	NeighborsBatch(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType) error
}

// BatchSampler is an optional Source capability: fixed-width neighbor draws
// executed where the adjacency lives, so a remote source ships width
// sampled IDs per vertex instead of full hub adjacency lists. Weighted
// draws (edge-weight proportional) are part of the capability; sources
// without it only serve uniform selection through NeighborsBatch.
type BatchSampler interface {
	// SampleBatch fills dst (len(vs)*width entries, batch-major) with width
	// neighbor draws per vertex of vs under edge type t. Vertices with no
	// type-t out-edges are padded with themselves, keeping the output
	// aligned. seed makes the draw deterministic for a given source state;
	// callers advance their own Rng to produce per-hop seeds.
	//
	// Draws are slot-pure: the samples filling dst[i*width:(i+1)*width]
	// come from SlotRng(seed, i) and are therefore a pure function of
	// (seed, i, the neighbor list of vs[i]). Every implementation over the
	// same adjacency produces identical output — whether a slot was served
	// from an in-memory graph, a neighbor cache, or a remote shard — which
	// is what lets replacing caches, shard layouts and admission timing
	// vary without perturbing a fixed-seed training run.
	SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, byWeight bool, seed uint64) error
}

// ErrWeightedUnsupported is returned when weighted neighborhood sampling is
// requested from a Source that does not implement BatchSampler.
var ErrWeightedUnsupported = errors.New("sampling: weighted draws require a Source implementing BatchSampler")

// EpochSpan accumulates the min/max update epochs observed in the replies
// that served a unit of work (one mini-batch). Distributed sources stamp
// every sampling reply with the serving shard's update epoch; a span whose
// bounds differ saw shards at different update generations — the
// mixed-epoch condition that snapshot-consistent training must detect.
// The zero EpochSpan is empty.
type EpochSpan struct {
	Min, Max uint64
	Seen     bool
}

// Observe folds one reply epoch into the span.
func (s *EpochSpan) Observe(e uint64) {
	if !s.Seen {
		s.Min, s.Max, s.Seen = e, e, true
		return
	}
	if e < s.Min {
		s.Min = e
	}
	if e > s.Max {
		s.Max = e
	}
}

// Merge folds another span into s.
func (s *EpochSpan) Merge(o EpochSpan) {
	if !o.Seen {
		return
	}
	s.Observe(o.Min)
	s.Observe(o.Max)
}

// Reset empties the span.
func (s *EpochSpan) Reset() { *s = EpochSpan{} }

// Mixed reports whether the span saw more than one update epoch: the batch
// mixes pre- and post-update draws (or shards at different generations) and
// is not snapshot-consistent.
func (s EpochSpan) Mixed() bool { return s.Seen && s.Min != s.Max }

// Pin identifies one leased, consistent snapshot of an epoched backend: a
// logical stamp plus the per-shard epochs the backend leased for it. While
// a batch samples under a pin, every read answers from the pinned epoch of
// the serving shard and the batch's span records Stamp — one value, so
// Mixed() holds as an invariant (a pinned batch that completes is
// snapshot-consistent by construction, never merely by luck).
//
// Pins are shared and reference-counted by the issuing PinSource: Pin
// returns the current pin (leasing a fresh snapshot only when updates made
// the previous one stale), Unpin drops one reference, and the backend
// leases are released when the last reference to a superseded pin goes.
type Pin struct {
	// Stamp is the pin's logical identity, strictly increasing per source.
	Stamp uint64
	// Epochs holds the leased epoch of each backend shard, by partition.
	Epochs []uint64
}

// PinSource is an optional Source capability for backends that can lease
// snapshot epochs. The scheduler of a batch pipeline pins the snapshot
// current at schedule time and stamps the batch with it; every stage of the
// batch then reads that snapshot.
type PinSource interface {
	Source
	// Pin acquires a reference to a pin of the backend's current snapshot.
	Pin() (*Pin, error)
	// Unpin releases one reference to p.
	Unpin(p *Pin)
	// Discard marks p unusable — its lease was observed lost (eviction on a
	// shard), so the next Pin call must lease a fresh snapshot. References
	// still held must be released with Unpin as usual.
	Discard(p *Pin)
}

// HopTagged is an optional Source capability for per-hop attribution:
// SetHop tells the source which (1-based) hop of a neighborhood expansion
// the following batch calls serve, so instrumented sources can break their
// always-on metrics down per (edge type, hop). SetHop(0) clears the tag
// (direct, unattributed calls). A hop tag is single-consumer state, so the
// capability belongs on per-consumer views (EpochView), not on shared
// sources; Neighborhood.SampleInto tags its source when the capability is
// present and always clears it on the way out.
type HopTagged interface {
	SetHop(h int)
}

// EpochedSource is an optional Source capability for backends whose replies
// are stamped with update epochs. EpochView returns a private view of the
// source for one consumer (e.g. one pipeline worker): the view serves the
// same data but records the epochs it observes, so concurrent consumers of
// a shared source each get a per-batch span without synchronization.
type EpochedSource interface {
	Source
	EpochView() EpochView
}

// EpochView is a single-consumer Source view that records observed reply
// epochs. Views are not safe for concurrent use; the source behind them is.
// Views of epoched sources that also implement BatchSampler implement it
// too, preserving the server-side fixed-width draw path.
type EpochView interface {
	Source
	// Span returns the epochs observed since the last ResetSpan.
	Span() EpochSpan
	// ResetSpan empties the view's span (called between mini-batches).
	ResetSpan()
	// SetPin makes subsequent reads answer from p's snapshot (nil reverts
	// to head reads). While pinned the span records p.Stamp, so a completed
	// batch's span is single-valued — Mixed() becomes an invariant.
	SetPin(p *Pin)
}

// GraphSource serves neighbors from an in-memory graph. It implements both
// Source and BatchSampler; weighted draws go through a lazily built
// per-edge-type AliasIndex that is shared, immutable once built, and safe
// for concurrent use.
type GraphSource struct {
	G *graph.Graph

	mu      sync.RWMutex
	indexes map[graph.EdgeType]*AliasIndex
}

// NewGraphSource wraps an in-memory graph as a batch Source.
func NewGraphSource(g *graph.Graph) *GraphSource { return &GraphSource{G: g} }

// NeighborsBatch implements Source; the filled slices alias the graph's CSR
// storage.
func (s *GraphSource) NeighborsBatch(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType) error {
	if len(dst) != len(vs) {
		return fmt.Errorf("sampling: NeighborsBatch dst length %d, want %d", len(dst), len(vs))
	}
	for i, v := range vs {
		dst[i] = s.G.OutNeighbors(v, t)
	}
	return nil
}

// SampleBatch implements BatchSampler. Warm calls perform zero allocations:
// the Rng lives on the stack and the alias index is reused across calls.
func (s *GraphSource) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, byWeight bool, seed uint64) error {
	if len(dst) != len(vs)*width {
		return fmt.Errorf("sampling: SampleBatch dst length %d, want %d", len(dst), len(vs)*width)
	}
	var ai *AliasIndex
	if byWeight {
		ai = s.aliasIndex(t)
	}
	o := 0
	for slot, v := range vs {
		ns := s.G.OutNeighbors(v, t)
		rng := SlotRng(seed, slot)
		switch {
		case len(ns) == 0:
			for i := 0; i < width; i++ {
				dst[o] = v
				o++
			}
		case ai != nil:
			for i := 0; i < width; i++ {
				dst[o] = ns[ai.Draw(v, &rng)]
				o++
			}
		default:
			for i := 0; i < width; i++ {
				dst[o] = ns[rng.Intn(len(ns))]
				o++
			}
		}
	}
	return nil
}

// aliasIndex returns the shared alias index for edge type t, building it on
// first use. Safe for concurrent callers.
func (s *GraphSource) aliasIndex(t graph.EdgeType) *AliasIndex {
	s.mu.RLock()
	ai := s.indexes[t]
	s.mu.RUnlock()
	if ai != nil {
		return ai
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ai = s.indexes[t]; ai != nil {
		return ai
	}
	ai = NewAliasIndex(s.G, t)
	if s.indexes == nil {
		s.indexes = make(map[graph.EdgeType]*AliasIndex)
	}
	s.indexes[t] = ai
	return ai
}
