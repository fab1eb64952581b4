// Package cluster implements AliGraph's distributed runtime: graph servers
// each holding one partition (edges live with their source vertex, Section
// 3.3) on a multi-version snapshot store (internal/version), a routing
// client that implements the batch-first sampling.Source seam (hub dedup,
// one stitched sub-batch per owning server, pluggable neighbor cache per
// Section 3.2, server-side fixed-width uniform SampleNeighbors draws) and its
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
// vertex-keyed so cache, shard layout and batch composition never perturb
// fixed-seed training, and servers bound their snapshot-overlay memory by
// folding old overlays into a fresh base (Compact RPC, or the
// SetCompactThreshold trigger on a background goroutine — ServeUpdate only
// signals, so the fold's O(V+E) walk never sits on an update's reply path)
// without disturbing leased epochs or live readers. Every draw is uniform,
// and shards keep no edge weights: a stored edge is its endpoints and type,
// and TRAVERSE edges come back unweighted. Neighbour and edge draws depend
// only on the adjacency a snapshot serves, so pinned SampleNeighbors
// and SampleEdges requests answer bit-identically across a fold (see
// ServeCompact).
//
// # Transport stack
//
// The set of RPCs lives in one place: the method table (transport.go). Each
// Method's row holds its name (in metric names and error text), its Server
// handler, the wire layouts of its request and reply (codec.go), a
// fresh-reply constructor and reply copy for the retry layer, and whether
// its request carries an idempotency token (Update, Lease, Release). Client
// and server metrics are arrays indexed by Method.
//
// Every transport layer implements one interface, Caller: Call(ctx, part,
// method, req, reply) and Close. LocalTransport runs the handler in process;
// RPCTransport sends the call over TCP and gives up when ctx ends.
// LatencyTransport, FaultTransport and RetryTransport each wrap an inner
// Caller, do their one thing (sleep; inject a seeded fault; retry under a
// CallPolicy, each attempt under its own deadline) and call inward, passing
// Close straight through. A production stack is Retry over RPC; chaos tests
// run Retry over Fault over Local. Each layer also embeds the typed facade,
// which calls with no deadline, so every layer is a Transport: the client,
// UpdateStream and the serving tier program against the typed Transport
// interface, and code outside the package (the benchmark's recorder) can
// implement Transport and sit on top of any layer. Over TCP, RPCServer
// decodes each request through its row and runs the row's handler, so no
// RPC is spelled out anywhere else.
//
// Layers must be safe for concurrent per-shard calls: Local and Latency
// use atomic counters, RPCTransport multiplexes calls on one connection per
// shard (a pending-call table keyed by sequence number, one reader
// goroutine, one write lock), and Retry and Fault guard their state with
// locks.
//
// # Failure model
//
// Transport faults are a design input, not an afterthought. The contract,
// layer by layer:
//
//   - What is retried: every read RPC (SampleNeighbors, SampleEdges,
//     NegativePool, Stats, Attrs, Bootstrap) is idempotent by
//     construction — draws are vertex-/seed-pure at pinned epochs, so a
//     re-issued read returns bit-identical data — and RetryTransport
//     re-issues them under a CallPolicy (per-attempt deadline, bounded
//     exponential backoff with jitter, retry budget). Update, Lease and
//     Release are retried too, made safe by client idempotency tokens the
//     server deduplicates (a ring of the last 1024 tokens): a retry whose
//     predecessor executed returns the recorded reply instead of
//     double-applying a batch, double-pinning a lease, or double-releasing
//     one. Each client mints tokens under a crypto/rand per-process nonce,
//     so concurrent workers sharing the same servers never alias each
//     other's dedup entries.
//
//   - What reconnects: DialRPC connects to every shard up front (an
//     unreachable one fails construction after a 5-s dial timeout). After
//     that, a failed read or write, or a malformed frame, kills a
//     connection and fails its pending calls with errors wrapping
//     ErrUnreachable; the call that finds it dead drops it, and the next
//     call redials. A per-attempt deadline fails only its own call, except
//     that a connection with nothing read since that call was written is
//     silent and is closed, so a partition with no FIN/RST cannot park every
//     retry on the same hung conn. Either way a restarted server is
//     transparently re-adopted.
//     Its head regression then surfaces on the next Lease reply, which resets
//     the head watermark and flushes epoch-keyed caches (the PR 4/5 path),
//     and pinned batches reading now-future epochs re-pin via the existing
//     evicted/future retry machinery.
//
//   - What parks: a shard whose retry budget is exhausted, or whose
//     breaker is open (three-state per-shard health owned by each
//     RetryTransport; traffic that should share breakers, such as
//     aligraph-serve's lookups and churn, goes through one transport),
//     fails the read with a transport error. No read answers from data it
//     did not fetch at its epoch: the batch pipeline parks the affected
//     batch (capped backoff, until the shard answers or the pipeline
//     closes) and replays it at the same pin, so fixed-seed training is
//     bit-identical to a fault-free run.
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
// manager's Lease/Release rounds, and UpdateStream pushes — is built on
// one scatter-gather primitive (fanout.go): the per-shard sub-requests
// launch together (a single-shard round runs inline), so a hop costs max
// over the touched shards' RTTs rather than their sum. What stays
// sequential is the gather: each sub-request writes only its own reply
// slot, and the calling goroutine stitches replies back in ascending part
// order after the round lands. Cache admissions, span observations,
// pin-head bookkeeping and error aggregation (the lowest-part failure
// wins) therefore happen in exactly the order a sequential client would
// produce them — and since draws are vertex-/seed-pure, reply values are
// independent of arrival order too, so fixed-seed training is
// bit-identical, faults or no faults. The only ordering the scatter gives
// up is cross-shard update delivery order, which was never meaningful
// (different servers, epochs advance independently); per-shard FIFO is
// preserved.
//
// # Observability
//
// Both sides of the RPC surface are instrumented always-on with internal/obs
// primitives (lock-free counters, log-bucketed latency histograms). The
// client keeps one histogram per RPC method (count/sum/p50/p99/max — the
// Metrics() cumulative fields are derived from it) plus per-(edge type, hop)
// sampling lanes: each NEIGHBORHOOD hop driven through a hop-tagged epoch
// view records its wall time, RPC fan-out, cache hits and epoch-keyed
// misses in its own lane (direct calls land in hop 0), so "hop 2
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
	// re-examined.
	compactKick chan struct{}
	compactQuit chan struct{}
	compactWG   sync.WaitGroup

	mu sync.RWMutex
	// boot, when set, answers the Bootstrap RPC: the global partition
	// assignment and schema a worker needs to start without loading the
	// graph locally.
	boot *BootstrapReply

	// dedup is the bounded idempotency-token ring: token -> recorded reply
	// for the non-idempotent RPCs (Update, Lease, Release), evicted FIFO at
	// dedupWindow entries. It makes "executed but the reply was lost"
	// retries safe.
	dedupMu   sync.Mutex
	dedup     map[uint64]any
	dedupFIFO []uint64

	// met holds the server's always-on instruments (see serverobs.go):
	// per-RPC serve latency, compaction timings, applied-update counters.
	// RegisterObs names them in a registry together with snapshot-store
	// gauges (ring occupancy, lease counts).
	met serverMetrics
}

// dedupWindow bounds the idempotency-token ring: a retry is recognized as
// long as fewer than dedupWindow other tokened calls landed since its
// first attempt.
const dedupWindow = 1024

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
	if s.dedup == nil {
		s.dedup = make(map[uint64]any, dedupWindow)
	}
	if _, ok := s.dedup[token]; ok {
		return
	}
	for len(s.dedupFIFO) >= dedupWindow {
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
// signals and runs the same gate + fold an inline trigger would have — just
// never on an update's critical path. The gate's retain/2 stride already
// amortizes successive folds.
func (s *Server) compactor(kick, quit chan struct{}) {
	defer s.compactWG.Done()
	for {
		select {
		case <-quit:
			return
		case <-kick:
		}
		s.maybeCompact()
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
func (s *Server) AddEdge(src, dst graph.ID, t graph.EdgeType) {
	s.store.AddEdge(src, dst, t)
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

// Neighbors returns the out-neighbors of local vertex v under edge type t
// at the head epoch. ok is false when v is not local.
func (s *Server) Neighbors(v graph.ID, t graph.EdgeType) (ns []graph.ID, ok bool) {
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
// otherwise — plus the head stamp every reply carries. An unpinned request
// costs a single lock acquisition total.
func (s *Server) view(pinned bool, pin uint64) (view version.View, head uint64, err error) {
	hv := s.store.HeadView()
	if !pinned {
		return hv, hv.Epoch(), nil
	}
	view, err = s.store.At(pin)
	if err != nil {
		return version.View{}, 0, fmt.Errorf("cluster: server %d: %w", s.ID, err)
	}
	return view, hv.Epoch(), nil
}

// maxDraws bounds the sampled IDs one SampleNeighbors or SampleEdges
// request may ask for, so a hostile count is an error instead of an
// allocation without bound. A training hop draws a few thousand.
const maxDraws = 1 << 22

// checkType rejects an edge type outside the store's schema. Every handler
// that reads per-type adjacency calls it first: an index out of range in an
// RPC handler would take the whole server process down.
func (s *Server) checkType(t graph.EdgeType) error {
	if n := s.store.NumEdgeTypes(); t < 0 || int(t) >= n {
		return fmt.Errorf("cluster: server %d: edge type %d out of range [0, %d)", s.ID, t, n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Wire types shared by all transports. Their layouts on TCP are in codec.go.

// AttrsRequest asks for the attribute vectors of a batch of vertices,
// optionally at a pinned epoch.
type AttrsRequest struct {
	Vertices []graph.ID
	Pin      uint64
	Pinned   bool
}

// AttrsReply carries attribute vectors aligned with the request, in one of
// AttrRows' two forms (Attrs.AppendRows expands them), stamped with the
// epoch served and the server's head. Clients keep no attribute rows
// between calls, so rows carry no install stamps.
type AttrsReply struct {
	Attrs AttrRows
	Epoch uint64
	Head  uint64
}

// AttrRows is a batch of attribute rows in one of two forms, picked by
// packRows from the rows themselves. When they hold at most 256 distinct
// float64 bit patterns (Taobao-sim's hold two, 0 and 1), the coded form
// carries each pattern once in Table, in first-appearance order, and each
// value as a one-byte index into it in Codes, one code row per attribute
// row. Otherwise Raw carries the rows. The zero value holds no rows. A
// decoded AttrRows keeps its codes: AppendRows expands them. ServeAttrs
// builds the same value from the shard's coded attribute column without
// hashing its rows (packView).
type AttrRows struct {
	Table []float64
	Codes [][]byte
	Raw   [][]float64
}

// ServeAttrs handles a batched attribute request. Its rows are packRows'
// form of the view's rows; a row the base stores coded costs array loads
// and a code remap, not a hash per value (packView).
func (s *Server) ServeAttrs(req AttrsRequest, reply *AttrsReply) error {
	defer obsSince(&s.met.rpc[MAttrs], time.Now())
	view, head, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	reply.Epoch = view.Epoch()
	reply.Head = head
	if reply.Attrs, err = packView(view, req.Vertices); err != nil {
		return fmt.Errorf("cluster: server %d %w", s.ID, err)
	}
	return nil
}

// packView returns packRows of view's rows of vs. A row the base holds
// coded is not hashed: each base code maps through remap to its reply
// code, and only a base pattern's first use in the reply is hashed, so
// that it takes the code of an equal pattern a row set by an update
// brought in first. Other rows go through packRows' path. It fails when a
// vertex is not local.
func packView(view version.View, vs []graph.ID) (AttrRows, error) {
	set := version.NewCodeSet()
	defer set.Release()
	remap := newRemapper(view.AttrTable())
	codes := make([][]byte, len(vs))
	var buf []byte // the code rows' storage, sized for the rows left at the current width
	for i, v := range vs {
		row, rc, ok := view.AttrStored(v)
		if !ok {
			return AttrRows{}, notLocal(v)
		}
		if row == nil && rc == nil {
			continue
		}
		n := len(row) + len(rc)
		if buf == nil || cap(buf)-len(buf) < n {
			buf = make([]byte, 0, max(n, (len(vs)-i)*n))
		}
		cs := buf[len(buf) : len(buf)+n : len(buf)+n]
		buf = buf[:len(buf)+n]
		if rc != nil && !remap.codes(set, rc, cs) || rc == nil && !set.Codes(row, cs) {
			return rawView(view, vs)
		}
		codes[i] = cs
	}
	return AttrRows{Table: set.AppendTable([]float64{}), Codes: codes}, nil
}

func notLocal(v graph.ID) error { return fmt.Errorf("does not own vertex %d", v) }

// rawView is packView's result when the reply holds more than maxCodes
// patterns: the rows themselves.
func rawView(view version.View, vs []graph.ID) (AttrRows, error) {
	rows := make([][]float64, len(vs))
	for i, v := range vs {
		var ok bool
		if rows[i], ok = view.Attr(v); !ok {
			return AttrRows{}, notLocal(v)
		}
	}
	return AttrRows{Raw: rows}, nil
}

// SampleRequest asks for fixed-width uniform neighbor draws executed
// server-side: instead of shipping a hub's full adjacency list, the server
// returns Width sampled IDs per requested vertex. Vertices are
// deduplicated by the client, which copies a vertex's one group to each of
// its batch slots. Draws are vertex-keyed — sampling.DrawVertex under
// (Seed, vertex) — so the values a vertex receives are identical whether
// they are drawn here, from a client-side cache hit, or on a different
// shard layout. len(Vertices)*Width is at most maxDraws.
type SampleRequest struct {
	Vertices []graph.ID
	EdgeType graph.EdgeType
	Width    int
	// WantLists lets the server answer low-degree vertices with their full
	// (short) adjacency list instead of draws; clients set it when their
	// cache can admit the lists.
	WantLists bool
	Seed      uint64
	Pin       uint64
	Pinned    bool
}

// SampleReply carries the drawn neighbor IDs: for each request vertex in
// order, Width draws, flattened. Vertices with no out-edges of
// the requested type are padded with themselves. As an optimization, a
// vertex whose degree does not exceed Width ships its full (short)
// adjacency list in Lists[i] instead of contributing to Samples: that is
// never more bytes than Width draws and lets the client draw
// locally and warm replacing caches; Since[i] stamps each shipped
// list's install epoch so the admission is version-exact. Epoch stamps the
// reply with the epoch served; Head with the server's current head.
type SampleReply struct {
	Samples []graph.ID
	Lists   [][]graph.ID
	Since   []uint64
	Epoch   uint64
	Head    uint64
}

// StatsRequest asks for the server's local size counters.
type StatsRequest struct{}

// StatsReply reports local vertex and per-edge-type edge counts (at the
// head epoch); clients use the edge counts to spread TRAVERSE batches
// across servers. Head stamps the head epoch the counters were read at,
// so a Stats round doubles as a cheap head probe — a serving tier polls it
// to observe out-of-band churn without touching any vertex data.
type StatsReply struct {
	NumVertices int
	EdgesByType []int64
	Head        uint64
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

// EdgesRequest asks for Count edges of one type drawn uniformly from the
// server's local edge set, optionally at a pinned epoch.
type EdgesRequest struct {
	EdgeType graph.EdgeType
	Count    int
	Seed     uint64
	Pin      uint64
	Pinned   bool
}

// EdgesReply carries sampled edges as parallel endpoint arrays (no
// weights: shards store none), stamped with the epoch served and the
// server's head.
type EdgesReply struct {
	Src, Dst []graph.ID
	Epoch    uint64
	Head     uint64
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

// LeaseReply reports the epoch actually leased and the server's head, plus
// the leased epoch's per-type edge counts. The counts ride the lease so a
// client can split pinned TRAVERSE batches across shards from the
// snapshot's own counters with zero extra RPCs.
type LeaseReply struct {
	Epoch       uint64
	Head        uint64
	EdgesByType []int64
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
// head and stats come from one lock acquisition, so a reply never reports
// a head newer than the epoch it leased (which would make the client's
// fresh pin look stale at birth) and the stats are exactly the leased
// snapshot's.
func (s *Server) ServeLease(req LeaseRequest, reply *LeaseReply) error {
	defer obsSince(&s.met.rpc[MLease], time.Now())
	if r, ok := dedupLookup[LeaseReply](s, req.Token); ok {
		*reply = r
		return nil
	}
	epoch, edges := s.store.LeaseHeadStats()
	reply.Epoch = epoch
	reply.Head = epoch
	reply.EdgesByType = edges
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
// throughout and keep serving the same adjacency; the head epoch does not
// move, so from a client's perspective shard memory stopped growing.
// Pinned SampleNeighbors and SampleEdges (TRAVERSE) draws are
// bit-identical across the fold: the new base keeps every list and its
// order, and with them every edge's rank.
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
// compactor's body). The fold is an
// O(V+E) base rebuild and only prunes entries behind the retention floor,
// so beyond the entry threshold the gate also requires the floor to have
// advanced at least half a retention window past the current base — a
// workload whose in-window touched set alone exceeds the threshold then
// pays one amortized rebuild per retain/2 epochs instead of one per signal
// (which could never shrink the overlay anyway).
func (s *Server) maybeCompact() {
	s.mu.RLock()
	thr := s.compactThreshold
	s.mu.RUnlock()
	if thr <= 0 {
		return
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
		return
	}
	// Single runner: a Compact RPC that passed the gate together with the
	// compactor skips instead of queueing whole-shard rebuilds behind the
	// store's compaction mutex; the gate is re-checked after winning in
	// case a just-finished fold already advanced the base.
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	if !gate() {
		return
	}
	// The only Compact error is "before Seal", impossible on a serving store.
	foldStart := time.Now()
	s.store.Compact()
	s.met.compaction.Observe(int64(time.Since(foldStart)))
}

// ServeSampleNeighbors handles a server-side fixed-width draw request: the
// RPC that keeps hub adjacency lists from crossing the network. All draws
// read one snapshot view. Each vertex's group is drawn by
// sampling.DrawVertex, so the values are identical to what a client-side
// cache hit over the same adjacency would have produced, and a compaction
// that folds the list into the base does not change them.
func (s *Server) ServeSampleNeighbors(req SampleRequest, reply *SampleReply) error {
	defer obsSince(&s.met.rpc[MSampleNeighbors], time.Now())
	if req.Width <= 0 || req.Width > maxDraws || len(req.Vertices) > maxDraws/req.Width {
		return fmt.Errorf("cluster: %d vertices x width %d: width outside [1, %d], or more than %d draws in one request",
			len(req.Vertices), req.Width, maxDraws, maxDraws)
	}
	if err := s.checkType(req.EdgeType); err != nil {
		return err
	}
	view, head, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	out := make([]graph.ID, len(req.Vertices)*req.Width)
	var lists [][]graph.ID
	var since []uint64
	if req.WantLists {
		lists = make([][]graph.ID, len(req.Vertices))
		since = make([]uint64, len(req.Vertices))
	}

	reply.Epoch = view.Epoch()
	reply.Head = head
	o := 0
	for i, v := range req.Vertices {
		ns, ok := view.Neighbors(v, req.EdgeType)
		if !ok {
			return fmt.Errorf("cluster: server %d does not own vertex %d", s.ID, v)
		}
		if req.WantLists && len(ns) > 0 && len(ns) <= req.Width {
			lists[i] = append([]graph.ID(nil), ns...)
			since[i] = view.ChangedAt(v, req.EdgeType)
			continue
		}
		sampling.DrawVertex(out[o:o+req.Width], v, ns, req.Seed)
		o += req.Width
	}
	reply.Samples = out[:o]
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
	reply.Head = view.Epoch()
	return nil
}

// ServeNegativePool handles a negative-pool request: distinct local
// out-edge destinations of type t with occurrence counts, in sorted order,
// at the head epoch.
func (s *Server) ServeNegativePool(req NegPoolRequest, reply *NegPoolReply) error {
	defer obsSince(&s.met.rpc[MNegativePool], time.Now())
	if err := s.checkType(req.EdgeType); err != nil {
		return err
	}
	view := s.store.HeadView()
	counts := make(map[graph.ID]int64)
	for _, v := range s.store.LocalVertices() {
		ns, _ := view.Neighbors(v, req.EdgeType)
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
// the given type drawn uniformly over the local edge set of the epoch
// served, each the edge at a uniform rank in (vertex ID, list position)
// order (version.View.SampleEdge), so vertices an update touched count
// exactly by their current degree.
func (s *Server) ServeSampleEdges(req EdgesRequest, reply *EdgesReply) error {
	defer obsSince(&s.met.rpc[MSampleEdges], time.Now())
	if err := s.checkType(req.EdgeType); err != nil {
		return err
	}
	if req.Count > maxDraws {
		return fmt.Errorf("cluster: %d edges requested, at most %d per request", req.Count, maxDraws)
	}
	view, head, err := s.view(req.Pinned, req.Pin)
	if err != nil {
		return err
	}
	reply.Epoch = view.Epoch()
	reply.Head = head
	if req.Count <= 0 {
		return nil
	}
	rng := sampling.NewRng(req.Seed)
	reply.Src = make([]graph.ID, 0, req.Count)
	reply.Dst = make([]graph.ID, 0, req.Count)
	for k := 0; k < req.Count; k++ {
		src, dst, ok := view.SampleEdge(req.EdgeType, rng)
		if !ok {
			break // no type-t edges at this epoch
		}
		reply.Src = append(reply.Src, src)
		reply.Dst = append(reply.Dst, dst)
	}
	return nil
}
