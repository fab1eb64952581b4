// Package cluster implements AliGraph's distributed runtime: graph servers
// each holding one partition (edges live with their source vertex, Section
// 3.3) on a multi-version snapshot store (internal/version), a routing
// client that implements the batch-first sampling.Source seam (hub dedup,
// one stitched sub-batch per owning server, pluggable neighbor cache per
// Section 3.2, server-side fixed-width SampleNeighbors draws) and its
// epoch-pinning capability (Lease/Release RPCs let a training batch read
// one consistent snapshot across every shard while updates stream in), a
// layered transport stack (below), and the parallel graph-building pipeline
// evaluated in Figure 7.
//
// Churn is a first-class steady state: neighbor-cache reads are epoch-keyed
// (a pinned batch can never consume a list fetched at another update
// generation — replies carry per-list install stamps, storage.NeighborCache
// tracks validity intervals), TRAVERSE batch splits under a pin use the
// pinned epoch's own counters (they ride the Lease reply), draws are
// slot-pure so cache and shard layout never perturb fixed-seed training,
// and servers bound their snapshot-overlay memory by folding old overlays
// into a fresh base (Compact RPC, or the SetCompactThreshold trigger on a
// rate-limited background goroutine — ServeUpdate only signals, so the
// fold's O(V+E) walk never sits on an update's reply path) without
// disturbing leased epochs or live readers.
//
// # Transport stack
//
// The set of RPCs lives in one place: the method table (transport.go). Each
// Method's row holds its name (metric names and the net/rpc name
// "Graph.<name>"), its Server handler, a fresh-reply constructor and reply
// copy for the retry layer, and whether its request carries an idempotency
// token (Update, Lease, Release). Client and server metrics are arrays
// indexed by Method.
//
// Every transport layer implements one interface, Caller: Call(part,
// method, req, reply), Kick(part) and Close. LocalTransport runs the
// handler in process (counting calls and sleeping RemoteLatency for non-home
// parts); RPCTransport sends the call over TCP. LatencyTransport,
// FaultTransport and RetryTransport each wrap an inner Caller, do their one
// thing (sleep; inject a seeded fault; retry under a CallPolicy) and call
// inward, passing Kick and Close straight through. A production stack is
// Retry over RPC; chaos tests run Retry over Fault over Local. Each layer
// also embeds the typed facade, so every layer is a Transport: the client,
// UpdateStream and the serving tier program against the typed Transport
// interface, and code outside the package (the benchmark's recorder) can
// implement Transport and sit on top of any layer. GraphService spells the
// RPCs out once more, because net/rpc dispatches by method name; a test
// checks it against the table.
//
// Layers must be safe for concurrent per-shard calls: Local and Latency
// use atomic counters, RPCTransport multiplexes on net/rpc clients, and
// Retry and Fault guard their state with locks.
//
// # Failure model
//
// Transport faults are a design input, not an afterthought. The contract,
// layer by layer:
//
//   - What is retried: every read RPC (Neighbors, SampleNeighbors,
//     SampleEdges, NegativePool, Stats, Attrs, Bootstrap) is idempotent by
//     construction — draws are slot-/seed-pure at pinned epochs, so a
//     re-issued read returns bit-identical data — and RetryTransport
//     re-issues them under a CallPolicy (per-attempt deadline, bounded
//     exponential backoff with jitter, retry budget). Update, Lease and
//     Release are retried too, made safe by client idempotency tokens the
//     server deduplicates (SetUpdateDedup bounds the ring): a retry whose
//     predecessor executed returns the recorded reply instead of
//     double-applying a batch, double-pinning a lease, or double-releasing
//     one. Each client mints tokens under a crypto/rand per-process nonce,
//     so concurrent workers sharing the same servers never alias each
//     other's dedup entries.
//
//   - What reconnects: RPCTransport drops a connection on transport-level
//     failure (io.EOF, rpc.ErrShutdown, net errors) and redials lazily on
//     the next call; a per-attempt deadline expiry additionally kicks the
//     shard down the layer stack to the connection (Caller.Kick), so a
//     silent partition with no FIN/RST cannot park every retry on the same
//     hung conn. Either way a restarted server is transparently re-adopted.
//     Its head regression then surfaces on the next Lease reply, which resets
//     the head watermark and flushes epoch-keyed caches (the PR 4/5 path),
//     and pinned batches reading now-future epochs re-pin via the existing
//     evicted/future retry machinery.
//
//   - What degrades: with Client.Degrade set, a shard whose retry budget is
//     exhausted (or whose breaker is open — three-state per-shard health in
//     RetryTransport) is served from stale cache entries instead of failing
//     the batch: neighbor hops come from cache-admitted lists via the
//     slot-pure draw path, attribute rows fall back to zeros, TRAVERSE and
//     NegativePool skip the dead shard's mass. Every such draw is counted
//     in Client.DegradedDraws so staleness is visible, never silent.
//     Without Degrade, the pipeline parks affected batches (capped
//     backoff, until the shard answers or the pipeline closes) instead of
//     killing the trainer.
//
//   - What surfaces: application errors from a live server — unknown
//     vertex, malformed request, evicted/future epoch — are never retried
//     by the policy layer (the server answered; a verbatim retry cannot
//     succeed) and propagate to the caller. The batch pipeline answers an
//     evicted/future epoch by discarding the pin and replaying the batch
//     at a fresh one; the rest reach the trainer.
//
// # Concurrency model
//
// Every multi-shard round — a hop's neighbor fetch, a sampled expansion,
// attribute fills, TRAVERSE/NegativePool scans, Stats refreshes, the pin
// manager's Lease/Release rounds, and UpdateStream/ApplyDelta pushes — is
// built on one scatter-gather primitive (fanout.go): the per-shard
// sub-requests launch together (bounded by Client.Fanout; 0 means all at
// once, 1 restores sequential issue), so a hop costs max over the touched
// shards' RTTs rather than their sum. What stays sequential is the gather:
// each sub-request writes only its own reply slot, and the calling
// goroutine stitches replies back in ascending part order after the round
// lands. Cache admissions, span observations, pin-head bookkeeping,
// degraded-draw counting and error aggregation (the lowest-part failure
// wins) therefore happen in exactly the order a sequential client would
// produce them — and since draws are slot-/seed-pure, reply values are
// independent of arrival order too, so fixed-seed training is bit-identical
// with fan-out on or off, faults or no faults. The only ordering the scatter gives up is cross-shard update
// delivery order, which was never meaningful (different servers, epochs
// advance independently); per-shard FIFO is preserved.
//
// # Observability
//
// Both sides of the RPC surface are instrumented always-on with internal/obs
// primitives (lock-free counters, log-bucketed latency histograms). The
// client keeps one histogram per RPC method (count/sum/p50/p99/max — the
// Metrics() cumulative fields are derived from it) plus per-(edge type, hop)
// sampling lanes: each NEIGHBORHOOD hop driven through a hop-tagged epoch
// view records its wall time, RPC fan-out, cache hits, epoch-keyed misses
// and degraded draws in its own lane (direct calls land in hop 0), so "hop 2
// of edge type 1 is slow because its epoch-miss rate doubled" is readable
// off one snapshot. Servers time every RPC handler and compaction fold and
// gauge their snapshot store (epoch head/floor/base, overlay-ring occupancy,
// lease counts). Client.RegisterObs and Server.RegisterObs name the
// instruments in an obs.Registry — cluster.client.* and
// cluster.server.<ID>.* — which obs.Serve exposes at /metrics (text) and
// /metrics.json; recording happens regardless, at a cost of one clock read
// and a few atomic adds per operation, with no allocation, no lock, and no
// random-stream interaction (fixed-seed runs stay bit-identical with
// instrumentation on, which the chaos tests assert).
//
// # Adaptive sampling plans
//
// The per-lane counters are not just readable — they drive an optimizer.
// internal/plan turns each lane's windowed cache-hit rate into a strategy
// choice: hub-heavy reused lanes fetch full adjacency lists once and draw
// locally (ClientDraws), churn-only lanes skip cache probes and admission
// entirely (ServerDraws, so their one-shot lists stop evicting hubs from
// replacing caches), everything else keeps the hybrid default. The client
// consumes decisions lock-free (Client.SetPlan installs an immutable Plan;
// Client.NewPlanner wires the feedback loop over Client.LaneStats), and
// per-lane admission gating rides the same Plan. Because uniform draws are
// slot-pure, a strategy only moves where a draw executes — fixed-seed
// training is bit-identical under any plan, any mid-run plan switch, and
// the adaptive planner's live re-decisions; only RPC volume changes.
// Weighted draws always stay server-side (the server's alias-method
// stream is the one deterministic executor). Decisions and their inputs
// publish as plan.* gauges next to the lane counters they came from.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/version"
)

// Server is one graph server: it stores the adjacency lists and attributes
// of the vertices assigned to it in a multi-version snapshot store.
// Neighbor lists reference global vertex IDs; a destination may live on
// another server.
//
// Every sampling RPC either reads the head epoch (stamping the reply with
// it) or, when the request carries a pin, the exact epoch the client
// leased — so a mini-batch whose requests all pin one epoch observes one
// consistent snapshot no matter how many ServeUpdate batches land
// mid-flight. Updates never rewrite shared backing arrays in place: the
// store is copy-on-write per touched vertex, and replies built from a view
// stay valid after any number of concurrent updates.
type Server struct {
	ID int

	store *version.Store

	// compactThreshold, when positive, arms threshold-triggered overlay
	// compaction once the head overlay's cumulative entry count reaches
	// it — the steady-state memory bound under an unbounded update stream.
	// The fold itself runs on a dedicated background goroutine (compactor);
	// ServeUpdate only signals it, so the O(V+E) rebuild never sits on an
	// update's critical path. Compaction is also reachable explicitly
	// through the Compact RPC.
	compactThreshold int64
	// compacting serializes threshold-triggered compactions: the Compact
	// RPC and the background compactor must not queue O(V+E) rebuilds back
	// to back when they pass the gate together.
	compacting atomic.Bool
	// compactKick (1-buffered) carries ServeUpdate's fold signals to the
	// compactor; sends never block and coalesce while a fold runs, and the
	// buffered token guarantees the state AFTER the last signaled update is
	// re-examined. compactGap rate-limits successive background folds.
	compactKick chan struct{}
	compactQuit chan struct{}
	compactWG   sync.WaitGroup
	compactGap  time.Duration

	mu sync.RWMutex
	// boot, when set, answers the Bootstrap RPC: the global partition
	// assignment and schema a worker needs to start without loading the
	// graph locally.
	boot *BootstrapReply

	// dedup is the bounded idempotency-token ring: token -> recorded reply
	// for the non-idempotent RPCs (Update, Lease, Release), evicted FIFO at
	// dedupCap entries. It makes "executed but the reply was lost" retries
	// safe.
	dedupMu   sync.Mutex
	dedup     map[uint64]any
	dedupFIFO []uint64
	dedupCap  int

	// met holds the server's always-on instruments (see serverobs.go):
	// per-RPC serve latency, compaction timings, applied-update counters.
	// RegisterObs names them in a registry together with snapshot-store
	// gauges (ring occupancy, lease counts).
	met serverMetrics
}

// defaultDedupWindow bounds the idempotency-token ring when SetUpdateDedup
// was never called.
const defaultDedupWindow = 1024

// SetUpdateDedup resizes the idempotency-token window (default 1024
// entries); n <= 0 disables dedup entirely (tokens are then ignored).
func (s *Server) SetUpdateDedup(n int) {
	s.dedupMu.Lock()
	s.dedupCap = n
	if n <= 0 {
		s.dedupCap = -1
		s.dedup = nil
		s.dedupFIFO = nil
	}
	s.dedupMu.Unlock()
}

// dedupLookup returns the recorded reply for token, if any. Token 0 (legacy
// callers) never matches.
func dedupLookup[Rep any](s *Server, token uint64) (Rep, bool) {
	var zero Rep
	if token == 0 {
		return zero, false
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if v, ok := s.dedup[token]; ok {
		if r, ok := v.(Rep); ok {
			return r, true
		}
	}
	return zero, false
}

// dedupRecord records a successfully executed request's reply under token.
func (s *Server) dedupRecord(token uint64, reply any) {
	if token == 0 {
		return
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if s.dedupCap < 0 {
		return // disabled
	}
	if s.dedupCap == 0 {
		s.dedupCap = defaultDedupWindow
	}
	if s.dedup == nil {
		s.dedup = make(map[uint64]any, s.dedupCap)
	}
	if _, ok := s.dedup[token]; ok {
		return
	}
	for len(s.dedupFIFO) >= s.dedupCap {
		delete(s.dedup, s.dedupFIFO[0])
		s.dedupFIFO = s.dedupFIFO[1:]
	}
	s.dedup[token] = reply
	s.dedupFIFO = append(s.dedupFIFO, token)
}

// NewServer creates an empty server for the given partition id and number of
// edge types, retaining version.DefaultRetain update epochs.
func NewServer(id, numEdgeTypes int) *Server {
	return &Server{ID: id, store: version.NewStore(numEdgeTypes)}
}

// NewServerRetain is NewServer with an explicit epoch-retention window.
func NewServerRetain(id, numEdgeTypes, retain int) *Server {
	return &Server{ID: id, store: version.NewStoreRetain(numEdgeTypes, retain)}
}

// Store exposes the server's snapshot store (tests and tooling).
func (s *Server) Store() *version.Store { return s.store }

// SetCompactThreshold arms automatic overlay compaction: once the head
// overlay's cumulative adjacency+attribute entry count reaches n, an
// applied update signals the background compactor, which folds the
// retention floor into a fresh base off the update path. n <= 0 disables
// the trigger (the Compact RPC still works). The first arming call starts
// the compactor goroutine; call Close to stop it.
func (s *Server) SetCompactThreshold(n int) {
	s.mu.Lock()
	s.compactThreshold = int64(n)
	if n > 0 && s.compactKick == nil {
		s.compactKick = make(chan struct{}, 1)
		s.compactQuit = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactor(s.compactKick, s.compactQuit)
	}
	s.mu.Unlock()
}

// SetCompactInterval rate-limits the background compactor: at least d
// between successive threshold-triggered folds (signals arriving earlier
// coalesce and the fold runs once the gap has passed). Default 0: fold as
// soon as signaled. The Compact RPC is never rate-limited.
func (s *Server) SetCompactInterval(d time.Duration) {
	s.mu.Lock()
	s.compactGap = d
	s.mu.Unlock()
}

// Close stops the background compactor (a no-op when compaction was never
// armed). Idempotent; the server remains fully usable for RPCs afterwards,
// only the threshold trigger goes dead.
func (s *Server) Close() {
	s.mu.Lock()
	quit := s.compactQuit
	s.compactQuit = nil
	s.mu.Unlock()
	if quit != nil {
		close(quit)
	}
	s.compactWG.Wait()
}

// compactor is the background fold loop: it waits for ServeUpdate's
// signals, enforces the configured minimum gap between folds, and runs the
// same gate + fold an inline trigger would have — just never on an
// update's critical path.
func (s *Server) compactor(kick, quit chan struct{}) {
	defer s.compactWG.Done()
	var last time.Time
	for {
		select {
		case <-quit:
			return
		case <-kick:
		}
		s.mu.RLock()
		gap := s.compactGap
		s.mu.RUnlock()
		if gap > 0 && !last.IsZero() {
			if wait := gap - time.Since(last); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-quit:
					t.Stop()
					return
				case <-t.C:
				}
			}
		}
		if s.maybeCompact() {
			last = time.Now()
		}
	}
}

// signalCompact hands an applied update's fold hint to the compactor
// without ever blocking: the 1-buffered channel coalesces bursts, and a
// pending token is consumed only after the triggering update's state is
// visible, so the gate always re-examines the newest overlay.
func (s *Server) signalCompact() {
	s.mu.RLock()
	kick, thr := s.compactKick, s.compactThreshold
	s.mu.RUnlock()
	if thr <= 0 || kick == nil {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}

// AddVertex registers a local vertex with its attributes (loading phase,
// before Seal).
func (s *Server) AddVertex(v graph.ID, attr []float64) { s.store.AddVertex(v, attr) }

// AddEdge appends an out-edge for local vertex src (loading phase, before
// Seal).
func (s *Server) AddEdge(src, dst graph.ID, t graph.EdgeType, w float64) {
	s.store.AddEdge(src, dst, t, w)
}

// Seal freezes the loaded data as the immutable epoch-0 base; call once
// loading completes. Subsequent mutation goes through ServeUpdate.
func (s *Server) Seal() { s.store.Seal() }

// NumLocalVertices reports how many vertices this server owns.
func (s *Server) NumLocalVertices() int { return s.store.NumVertices() }

// NumLocalEdges reports how many out-edges this server stores at the head
// epoch.
func (s *Server) NumLocalEdges() int {
	view := s.store.HeadView()
	n := int64(0)
	for t := 0; t < s.store.NumEdgeTypes(); t++ {
		n += view.EdgeCount(graph.EdgeType(t))
	}
	return int(n)
}

// LocalVertices returns the sorted local vertex IDs (shared slice).
func (s *Server) LocalVertices() []graph.ID { return s.store.LocalVertices() }

// Neighbors returns the out-neighbors and weights of local vertex v under
// edge type t at the head epoch. ok is false when v is not local.
func (s *Server) Neighbors(v graph.ID, t graph.EdgeType) (ns []graph.ID, ws []float64, ok bool) {
	return s.store.HeadView().Neighbors(v, t)
}

// UpdateEpoch reports how many update batches the server has applied (the
// head epoch of its snapshot store).
func (s *Server) UpdateEpoch() uint64 { return s.store.Head() }

// Attr returns the attribute vector of local vertex v at the head epoch.
func (s *Server) Attr(v graph.ID) ([]float64, bool) {
	return s.store.HeadView().Attr(v)
}

// view resolves the snapshot a request reads — the pinned epoch when the
// request carries one (failing with the store's evicted/future error when
// it is gone, which clients translate into a re-pin-and-retry), the head
// otherwise — plus the head/attr-head stamps every reply carries. The
// stamps come from one head view, so they are a consistent pair, and an
// unpinned request costs a single lock acquisition total.
func (s *Server) view(pinned bool, pin uint64) (view version.View, head, attrHead uint64, err error) {
	hv := s.store.HeadView()
	head, attrHead = hv.Epoch(), hv.AttrEpoch()
	if !pinned {
		return hv, head, attrHead, nil
	}
	view, err = s.store.At(pin)
	if err != nil {
		return version.View{}, 0, 0, fmt.Errorf("cluster: server %d: %w", s.ID, err)
	}
	return view, head, attrHead, nil
}

// ---------------------------------------------------------------------------
// Wire types shared by all transports. Exported fields for encoding/gob.

// NeighborsRequest asks for the out-neighbors of a batch of vertices under
// one edge type. Batching amortizes the per-call network cost; the client's
// sub-batch stitching (Section 3.3) builds these. Pinned requests read the
// leased epoch Pin instead of the head.
type NeighborsRequest struct {
	Vertices []graph.ID
	EdgeType graph.EdgeType
	Pin      uint64
	Pinned   bool
}

// NeighborsReply carries per-vertex neighbor and weight lists aligned with
// the request order. Epoch is the epoch served (the pin for pinned
// requests); Head is the server's current head epoch, which clients use to
// notice that their pin went stale; AttrHead is the newest epoch on this
// server that rewrote any attribute row, which attribute caches use to
// invalidate without ever issuing an extra RPC — the signal rides on every
// sampling reply, so even a fully-hot attribute cache observes it. Since[i]
// is the epoch at which Neighbors[i] was installed (0 = predates every
// update): together with Epoch it gives neighbor caches the exact validity
// interval of each list.
type NeighborsReply struct {
	Neighbors [][]graph.ID
	Weights   [][]float64
	Since     []uint64
	Epoch     uint64
	Head      uint64
	AttrHead  uint64
}

// AttrsRequest asks for the attribute vectors of a batch of vertices,
// optionally at a pinned epoch.
type AttrsRequest struct {
	Vertices []graph.ID
	Pin      uint64
	Pinned   bool
}

// AttrsReply carries attribute vectors aligned with the request. AttrEpoch
// is the latest epoch <= the SERVED one that rewrote any attribute row
// (the version of the returned rows); AttrHead is the server's newest
// attribute-rewriting epoch regardless of pin. Client attribute caches
// flush when AttrHead advances and version-gate admissions on AttrEpoch.
// Since[i] is the epoch at which Attrs[i] was installed (0 = predates every
// update) — the row-level analogue of NeighborsReply.Since, so an embedding
// cache's validity interval covers feature changes exactly, per row, not
// just via the shard-wide AttrEpoch watermark.
type AttrsReply struct {
	Attrs     [][]float64
	Since     []uint64
	Epoch     uint64
	AttrEpoch uint64
	Head      uint64
	AttrHead  uint64
}

// ServeNeighbors handles a batched neighbor request. The reply is built
// from one immutable snapshot view, so it is consistent with a single
// update generation even while ServeUpdate batches land concurrently.
func (s *Server) ServeNeighbors(req NeighborsRequest, reply *NeighborsReply) error {
	defer obsSince(&s.met.rpc[MNeighbors], time.Now())
	view, head, attrHead, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	reply.Neighbors = make([][]graph.ID, len(req.Vertices))
	reply.Weights = make([][]float64, len(req.Vertices))
	reply.Since = make([]uint64, len(req.Vertices))
	reply.Epoch = view.Epoch()
	reply.Head = head
	reply.AttrHead = attrHead
	for i, v := range req.Vertices {
		ns, ws, ok := view.Neighbors(v, req.EdgeType)
		if !ok {
			return fmt.Errorf("cluster: server %d does not own vertex %d", s.ID, v)
		}
		reply.Neighbors[i] = ns
		reply.Weights[i] = ws
		reply.Since[i] = view.ChangedAt(v, req.EdgeType)
	}
	return nil
}

// ServeAttrs handles a batched attribute request.
func (s *Server) ServeAttrs(req AttrsRequest, reply *AttrsReply) error {
	defer obsSince(&s.met.rpc[MAttrs], time.Now())
	view, head, attrHead, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	reply.Attrs = make([][]float64, len(req.Vertices))
	reply.Since = make([]uint64, len(req.Vertices))
	reply.Epoch = view.Epoch()
	reply.AttrEpoch = view.AttrEpoch()
	reply.Head = head
	reply.AttrHead = attrHead
	for i, v := range req.Vertices {
		a, ok := view.Attr(v)
		if !ok {
			return fmt.Errorf("cluster: server %d does not own vertex %d", s.ID, v)
		}
		reply.Attrs[i] = a
		reply.Since[i] = view.AttrChangedAt(v)
	}
	return nil
}

// SampleRequest asks for fixed-width neighbor draws executed server-side:
// instead of shipping a hub's full adjacency list, the server returns Width
// sampled IDs per requested slot. Vertices are deduplicated by the client;
// Counts[i] (1 when nil) is how many independent Width-wide draw groups
// vertex i needs, so repeated batch entries stay uncorrelated without being
// re-sent.
type SampleRequest struct {
	Vertices []graph.ID
	Counts   []int
	// Slots carries the global batch position of every draw group,
	// flattened in Counts order (sum(Counts) entries): group j of vertex i
	// is batch slot Slots[cursor]. Draws are slot-pure — derived from
	// sampling.SlotRng(Seed, slot) — so the values a slot receives are
	// identical whether it is drawn here, from a client-side cache hit, or
	// on a different shard layout. Absent (legacy callers), the server
	// numbers groups sequentially.
	Slots    []int32
	EdgeType graph.EdgeType
	Width    int
	ByWeight bool
	// WantLists lets the server answer low-degree uniform vertices with
	// their full (short) adjacency list instead of draws; clients set it
	// when their cache can admit the lists.
	WantLists bool
	Seed      uint64
	Pin       uint64
	Pinned    bool
}

// SampleReply carries the drawn neighbor IDs: for each request vertex in
// order, Counts[i]*Width draws, flattened. Vertices with no out-edges of
// the requested type are padded with themselves. As an optimization, a
// uniform-draw vertex whose degree does not exceed Width ships its full
// (short) adjacency list in Lists[i] instead of contributing to Samples:
// that is never more bytes than Counts[i]*Width draws and lets the client
// draw locally and warm replacing caches; Since[i] stamps each shipped
// list's install epoch so the admission is version-exact. Epoch stamps the
// reply with the epoch served; Head with the server's current head.
type SampleReply struct {
	Samples  []graph.ID
	Lists    [][]graph.ID
	Since    []uint64
	Epoch    uint64
	Head     uint64
	AttrHead uint64
}

// StatsRequest asks for the server's local size counters.
type StatsRequest struct{}

// StatsReply reports local vertex and per-edge-type edge counts and edge
// weight sums (at the head epoch); clients use the edge counts to spread
// uniform TRAVERSE batches across servers, and the weight sums to spread
// weight-proportional ones. Head and AttrHead stamp the head epoch the
// counters were read at, so a Stats round doubles as a cheap head probe —
// a serving tier polls it to observe out-of-band churn without touching
// any vertex data.
type StatsReply struct {
	NumVertices  int
	EdgesByType  []int64
	WeightByType []float64
	Head         uint64
	AttrHead     uint64
}

// NegPoolRequest asks for the server's negative-sampling candidate counts
// under one edge type.
type NegPoolRequest struct {
	EdgeType graph.EdgeType
}

// NegPoolReply carries the distinct destinations of the server's local
// type-t out-edges with their occurrence counts. Summed across servers the
// counts are exactly the global in-degrees (every edge lives with its
// source), so a client can rebuild the paper's unigram^0.75 NEGATIVE
// distribution without any server holding the whole graph.
type NegPoolReply struct {
	Vertices []graph.ID
	Counts   []int64
}

// EdgesRequest asks for Count edges of one type drawn from the server's
// local edge set — uniformly, or proportionally to edge weight when
// ByWeight is set — optionally at a pinned epoch.
type EdgesRequest struct {
	EdgeType graph.EdgeType
	Count    int
	ByWeight bool
	Seed     uint64
	Pin      uint64
	Pinned   bool
}

// EdgesReply carries sampled edges as parallel arrays (gob-friendly),
// stamped with the epoch served and the server's head.
type EdgesReply struct {
	Src, Dst []graph.ID
	Weight   []float64
	Epoch    uint64
	Head     uint64
	AttrHead uint64
}

// LeaseRequest pins the server's current head epoch against eviction.
// (In-process users that need to pin an explicit historical epoch use
// version.Store.Lease directly.) Token, when non-zero, deduplicates
// retries: a lease is refcounted server-side, so a retry whose predecessor
// landed (reply lost) must not pin a second lease the client would never
// release.
type LeaseRequest struct {
	Token uint64
}

// LeaseReply reports the epoch actually leased, the server's head, and its
// newest attribute-rewriting epoch, plus the leased epoch's per-type edge
// counts and edge-weight sums. The stats ride the lease so a client can
// split pinned TRAVERSE batches across shards from the snapshot's own
// counters with zero extra RPCs.
type LeaseReply struct {
	Epoch        uint64
	Head         uint64
	AttrHead     uint64
	EdgesByType  []int64
	WeightByType []float64
}

// ReleaseRequest drops one lease on Epoch. Token, when non-zero,
// deduplicates retries — a doubled release could drop another pin's lease
// on the same epoch.
type ReleaseRequest struct {
	Epoch uint64
	Token uint64
}

// ReleaseReply is empty; releases are best-effort acknowledgements.
type ReleaseReply struct{}

// CompactRequest asks the server to fold overlays behind the retention
// floor into a fresh base snapshot (operator- or threshold-triggered).
type CompactRequest struct{}

// CompactReply reports what the compaction did: the epoch the base now
// freezes, how many cumulative overlay entries it absorbed and how many
// were pruned from retained overlays, and the server's head epoch. The
// head never moves — clients keep reading exactly the epochs they pinned.
type CompactReply struct {
	BaseEpoch uint64
	Folded    int
	Pruned    int
	Head      uint64
}

// ServeLease pins the current head epoch of the snapshot store. The epoch,
// head, attr-head and stats come from one lock acquisition, so a reply
// never reports a head newer than the epoch it leased (which would make
// the client's fresh pin look stale at birth) and the stats are exactly
// the leased snapshot's.
func (s *Server) ServeLease(req LeaseRequest, reply *LeaseReply) error {
	defer obsSince(&s.met.rpc[MLease], time.Now())
	if r, ok := dedupLookup[LeaseReply](s, req.Token); ok {
		*reply = r
		return nil
	}
	epoch, attrEpoch, edges, weights := s.store.LeaseHeadStats()
	reply.Epoch = epoch
	reply.Head = epoch
	reply.AttrHead = attrEpoch
	reply.EdgesByType = edges
	reply.WeightByType = weights
	s.dedupRecord(req.Token, *reply)
	return nil
}

// ServeRelease drops one lease; unknown epochs are ignored.
func (s *Server) ServeRelease(req ReleaseRequest, reply *ReleaseReply) error {
	defer obsSince(&s.met.rpc[MRelease], time.Now())
	if _, ok := dedupLookup[ReleaseReply](s, req.Token); ok {
		return nil
	}
	s.store.Release(req.Epoch)
	s.dedupRecord(req.Token, *reply)
	return nil
}

// ServeCompact folds overlays behind the retention floor into a fresh base
// (version.Store.Compact). Live views and leased epochs stay readable
// throughout and keep serving the same adjacency and draw distributions;
// the head epoch does not move, so from a client's perspective shard
// memory stopped growing and (at most) fixed-seed draws on fold-touched
// vertices re-randomized within their distribution.
func (s *Server) ServeCompact(_ CompactRequest, reply *CompactReply) error {
	defer obsSince(&s.met.rpc[MCompact], time.Now())
	foldStart := time.Now()
	st, err := s.store.Compact()
	s.met.compaction.Observe(int64(time.Since(foldStart)))
	if err != nil {
		return fmt.Errorf("cluster: server %d: %w", s.ID, err)
	}
	reply.BaseEpoch = st.BaseEpoch
	reply.Folded = st.FoldedAdj + st.FoldedAttrs
	reply.Pruned = st.Pruned
	reply.Head = s.store.Head()
	return nil
}

// maybeCompact runs one threshold-armed compaction attempt (the background
// compactor's body), reporting whether a fold actually ran. The fold is an
// O(V+E) base rebuild and only prunes entries behind the retention floor,
// so beyond the entry threshold the gate also requires the floor to have
// advanced at least half a retention window past the current base — a
// workload whose in-window touched set alone exceeds the threshold then
// pays one amortized rebuild per retain/2 epochs instead of one per signal
// (which could never shrink the overlay anyway).
func (s *Server) maybeCompact() bool {
	s.mu.RLock()
	thr := s.compactThreshold
	s.mu.RUnlock()
	if thr <= 0 {
		return false
	}
	gate := func() bool {
		ov := s.store.Overlay()
		if int64(ov.AdjEntries+ov.AttrEntries) < thr {
			return false
		}
		stride := uint64(s.store.Retain() / 2)
		if stride < 1 {
			stride = 1
		}
		return s.store.Floor() >= ov.BaseEpoch+stride
	}
	if !gate() {
		return false
	}
	// Single runner: a Compact RPC that passed the gate together with the
	// compactor skips instead of queueing whole-shard rebuilds behind the
	// store's compaction mutex; the gate is re-checked after winning in
	// case a just-finished fold already advanced the base.
	if !s.compacting.CompareAndSwap(false, true) {
		return false
	}
	defer s.compacting.Store(false)
	if !gate() {
		return false
	}
	// The only Compact error is "before Seal", impossible on a serving store.
	foldStart := time.Now()
	s.store.Compact()
	s.met.compaction.Observe(int64(time.Since(foldStart)))
	return true
}

// ServeSampleNeighbors handles a server-side fixed-width draw request: the
// RPC that keeps hub adjacency lists from crossing the network. All draws
// read one snapshot view; weighted draws go through the view's epoch-stable
// base AliasIndex for untouched vertices and a per-vertex weighted scan for
// vertices an update rewrote — invalidation scoped to touched vertices, not
// whole edge types. Each draw group derives its stream from its batch slot
// (sampling.SlotRng), so the values are identical to what a client-side
// cache hit over the same adjacency would have produced.
func (s *Server) ServeSampleNeighbors(req SampleRequest, reply *SampleReply) error {
	defer obsSince(&s.met.rpc[MSampleNeighbors], time.Now())
	if req.Width <= 0 {
		return fmt.Errorf("cluster: non-positive sample width %d", req.Width)
	}
	if len(req.Counts) > 0 && len(req.Counts) != len(req.Vertices) {
		return fmt.Errorf("cluster: %d counts for %d vertices", len(req.Counts), len(req.Vertices))
	}
	view, head, attrHead, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	total, groups := 0, 0
	for i := range req.Vertices {
		c := 1
		if len(req.Counts) > 0 {
			c = req.Counts[i]
		}
		total += c * req.Width
		groups += c
	}
	if len(req.Slots) > 0 && len(req.Slots) != groups {
		return fmt.Errorf("cluster: %d slots for %d draw groups", len(req.Slots), groups)
	}
	var ai *sampling.AliasIndex
	if req.ByWeight {
		ai = view.AliasIndex(req.EdgeType)
	}
	out := make([]graph.ID, 0, total)
	var lists [][]graph.ID
	var since []uint64
	if req.WantLists {
		lists = make([][]graph.ID, len(req.Vertices))
		since = make([]uint64, len(req.Vertices))
	}
	cursor := 0
	slotOf := func() int {
		i := cursor
		cursor++
		if len(req.Slots) > 0 {
			return int(req.Slots[i])
		}
		return i
	}

	reply.Epoch = view.Epoch()
	reply.Head = head
	reply.AttrHead = attrHead
	for i, v := range req.Vertices {
		ns, ws, slot, touched, ok := view.NeighborsSlot(v, req.EdgeType)
		if !ok {
			return fmt.Errorf("cluster: server %d does not own vertex %d", s.ID, v)
		}
		c := 1
		if len(req.Counts) > 0 {
			c = req.Counts[i]
		}
		switch {
		case len(ns) == 0:
			cursor += c
			for k := 0; k < c*req.Width; k++ {
				out = append(out, v)
			}
		case req.ByWeight:
			for g := 0; g < c; g++ {
				rng := sampling.SlotRng(req.Seed, slotOf())
				for k := 0; k < req.Width; k++ {
					d := -1
					if touched {
						d = version.WeightedDraw(ws, &rng)
					} else {
						d = ai.Draw(graph.ID(slot), &rng)
					}
					if d < 0 || d >= len(ns) {
						d = rng.Intn(len(ns))
					}
					out = append(out, ns[d])
				}
			}
		case req.WantLists && len(ns) <= req.Width:
			cursor += c
			lists[i] = append([]graph.ID(nil), ns...)
			since[i] = view.ChangedAt(v, req.EdgeType)
		default:
			for g := 0; g < c; g++ {
				rng := sampling.SlotRng(req.Seed, slotOf())
				for k := 0; k < req.Width; k++ {
					out = append(out, ns[rng.Intn(len(ns))])
				}
			}
		}
	}
	reply.Samples = out
	reply.Lists = lists
	reply.Since = since
	return nil
}

// ServeStats handles a size-counter request, reporting the head epoch's
// totals.
func (s *Server) ServeStats(_ StatsRequest, reply *StatsReply) error {
	defer obsSince(&s.met.rpc[MStats], time.Now())
	view := s.store.HeadView()
	reply.NumVertices = s.store.NumVertices()
	reply.EdgesByType = view.EdgeCounts(reply.EdgesByType[:0])
	reply.WeightByType = view.EdgeWeightSums(reply.WeightByType[:0])
	reply.Head = view.Epoch()
	reply.AttrHead = view.AttrEpoch()
	return nil
}

// ServeNegativePool handles a negative-pool request: distinct local
// out-edge destinations of type t with occurrence counts, in sorted order,
// at the head epoch.
func (s *Server) ServeNegativePool(req NegPoolRequest, reply *NegPoolReply) error {
	defer obsSince(&s.met.rpc[MNegativePool], time.Now())
	view := s.store.HeadView()
	counts := make(map[graph.ID]int64)
	for _, v := range s.store.LocalVertices() {
		ns, _, _ := view.Neighbors(v, req.EdgeType)
		for _, u := range ns {
			counts[u]++
		}
	}
	ids := make([]graph.ID, 0, len(counts))
	for v := range counts {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	reply.Vertices = ids
	reply.Counts = make([]int64, len(ids))
	for i, v := range ids {
		reply.Counts[i] = counts[v]
	}
	return nil
}

// ServeSampleEdges handles a TRAVERSE edge-sampling request: Count edges of
// the given type over the local edge set of the epoch served — uniform (a
// vertex drawn proportionally to its out-degree, then a uniform adjacency
// entry) or, with ByWeight, proportional to edge weight; vertices an update
// touched are mixed in exactly either way.
func (s *Server) ServeSampleEdges(req EdgesRequest, reply *EdgesReply) error {
	defer obsSince(&s.met.rpc[MSampleEdges], time.Now())
	view, head, attrHead, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	reply.Epoch = view.Epoch()
	reply.Head = head
	reply.AttrHead = attrHead
	if req.Count <= 0 {
		return nil
	}
	rng := sampling.NewRng(req.Seed)
	reply.Src = make([]graph.ID, 0, req.Count)
	reply.Dst = make([]graph.ID, 0, req.Count)
	reply.Weight = make([]float64, 0, req.Count)
	for k := 0; k < req.Count; k++ {
		var src, dst graph.ID
		var w float64
		var ok bool
		if req.ByWeight {
			src, dst, w, ok = view.SampleEdgeWeighted(req.EdgeType, rng)
		} else {
			src, dst, w, ok = view.SampleEdge(req.EdgeType, rng)
		}
		if !ok {
			break // no type-t edges (or weight mass) at this epoch
		}
		reply.Src = append(reply.Src, src)
		reply.Dst = append(reply.Dst, dst)
		reply.Weight = append(reply.Weight, w)
	}
	return nil
}
