package sampling

import (
	"fmt"

	"repro/internal/graph"
)

// Source is the one contract between NEIGHBORHOOD sampling and whatever
// holds the adjacency: an in-memory graph, or a distributed client
// stitching per-server sub-batches (Section 3.3). One call covers one
// whole hop of a mini-batch, which is what lets a remote implementation
// dedup hub vertices, draw where the adjacency lives, and pay at most one
// round trip per owning server instead of one per vertex.
type Source interface {
	// SampleBatch fills dst (len(vs)*width entries, batch-major) with width
	// uniform neighbor draws per vertex of vs under edge type t. Vertices
	// with no type-t out-edges are padded with themselves, keeping the
	// output aligned.
	// seed makes the draw deterministic for a given source state; callers
	// advance their own Rng to produce per-hop seeds.
	//
	// Draws are vertex-keyed: the samples filling dst[i*width:(i+1)*width]
	// are DrawVertex's for (seed, vs[i]) and are therefore a pure function
	// of (seed, vs[i], the neighbor list of vs[i]). Repeated occurrences of
	// a vertex in one call get identical groups, and a vertex's group does
	// not depend on which other vertices share the call. Every
	// implementation over the same adjacency produces identical output —
	// whether a vertex was served from an in-memory graph, a neighbor
	// cache, or a remote shard — which is what lets replacing caches, shard
	// layouts and batch composition vary without perturbing a fixed-seed
	// run.
	SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64) error
}

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

// PinSource is the Source capability of epoched backends (cluster
// clients), whose replies are stamped with update epochs and which can
// lease snapshot epochs. The owner of a batch pipeline pins the snapshot
// current at schedule time and stamps the batch with it; every stage of
// the batch then reads that snapshot through its own EpochView.
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
	// EpochView returns a private view of the source for one consumer (one
	// pipeline lane): it serves the same data but records the epochs it
	// observes, so concurrent consumers of a shared source each get a
	// per-batch span without synchronization.
	EpochView() EpochView
}

// EpochView is a single-consumer Source view that records observed reply
// epochs. Views are not safe for concurrent use; the source behind them is.
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
	// SetHop tells the view which (1-based) hop of a neighborhood expansion
	// the following calls serve, so the backend can break its metrics down
	// per (edge type, hop); 0 clears the tag. Neighborhood.SampleInto tags
	// a view source per hop and always clears the tag on the way out.
	SetHop(h int)
}

// GraphSource serves neighbors from an in-memory graph. It holds no state
// besides the graph, so it is safe for concurrent use.
type GraphSource struct {
	G *graph.Graph
}

// NewGraphSource wraps an in-memory graph as a batch Source.
func NewGraphSource(g *graph.Graph) *GraphSource { return &GraphSource{G: g} }

// SampleBatch implements Source. It performs zero allocations: the Rng
// lives on the stack.
func (s *GraphSource) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64) error {
	if len(dst) != len(vs)*width {
		return fmt.Errorf("sampling: SampleBatch dst length %d, want %d", len(dst), len(vs)*width)
	}
	for i, v := range vs {
		DrawVertex(dst[i*width:(i+1)*width], v, s.G.OutNeighbors(v, t), seed)
	}
	return nil
}

// DrawVertex fills dst with v's uniform neighbour draws: each entry indexes
// ns under a stream that is a full splitmix64 scramble of (seed, v), so
// nearby vertex IDs get uncorrelated streams, and an empty ns pads dst with
// v itself. It is the one draw rule of the seam: GraphSource, the graph
// server and the cluster client's cache hits all draw through it, so their
// draws are bit-identical by construction. The hop, context and edge type
// ride in seed (Neighborhood.SampleInto draws one per hop).
func DrawVertex(dst []graph.ID, v graph.ID, ns []graph.ID, seed uint64) {
	if len(ns) == 0 {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	z := seed + (uint64(v)+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	rng := Rng{state: z ^ (z >> 31)}
	for i := range dst {
		dst[i] = ns[rng.Intn(len(ns))]
	}
}
