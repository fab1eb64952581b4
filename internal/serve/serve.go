// Package serve is the online inference tier: it answers embedding, link
// score and top-k queries over a trained encoder without ever running a
// backward pass, at latencies a training loop cannot hit. Three mechanisms
// carry the load (Section 5's attribute/embedding caching, applied at the
// serving layer):
//
//   - Request coalescing. Concurrent lookups do not each pay a full
//     sample-gather-encode pipeline; they park in a pending set and a single
//     flush goroutine merges them into one deduplicated mini-batch per flush
//     window (time- or size-triggered). One pipelined pass amortizes the
//     per-batch sampling and RPC fan-out across every waiting caller, and
//     the single-flusher design keeps the encoder free of concurrent
//     inference batches (its feature source may hold per-batch state).
//     Coalescing does not change results: draws are vertex-keyed, so v's
//     embedding in a merged batch equals its embedding alone, bit for bit.
//
//   - Epoch-aware embedding caching. Every computed embedding is admitted
//     to a storage.EmbeddingCache together with its sampled dependency set
//     and a per-shard basis snapshot. Freshness has one mechanism: updates
//     applied through the tier (ApplyUpdate) run an invalidation round per
//     shard, and the cache's frontier — the newest epoch per shard up to
//     which every round has arrived, in whatever order — marks the
//     surviving entries current. The lag bound is the only backstop: an
//     epoch applied out of band leaves a gap the frontier cannot pass, and
//     an entry more than MaxLag epochs behind a shard's newest observed head
//     is re-embedded, never served. See storage.EmbeddingCache.
//
//   - Incremental re-embedding. Updates applied through the tier invalidate
//     exactly the cached k-hop in-neighborhood of the touched vertices; a
//     background refresher probes shard heads (so out-of-band churn ages the
//     cache even at a 100% hit rate) and re-embeds the hottest invalidated
//     or lag-expired vertices ahead of demand.
//
// A note on dependency sets: the registered dependencies are the *sampled*
// context — a fixed-seed subset of the true k-hop in-neighborhood. An update
// to a neighbor that the fixed-seed sampler would never draw for v cannot
// change v's embedding, so invalidating by sampled deps is exact for the
// embeddings this tier computes, not merely approximate.
//
// Observability: the tier's counters (the ones Stats snapshots) and two
// always-on request-path histograms — EmbedBatch latency end to end, and
// per-flush encoder time — fold into a shared obs.Registry via RegisterObs
// under serve.*, alongside embedding-cache outcome gauges. Stats() remains
// the programmatic snapshot; the registry adds the HTTP surface
// (obs.Serve's /metrics and /metrics.json) at one clock read and one atomic
// add per call.
package serve

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Embedder is the forward-only encoder seam; *core.LinkTrainer satisfies it.
// EmbedCtx must be safe for concurrent callers and deterministic (the serve
// tier additionally guarantees it never issues overlapping calls).
type Embedder interface {
	EmbedCtx(vs []graph.ID) (*tensor.Matrix, *sampling.Context, error)
}

// Config tunes the serving tier. Zero values select the defaults noted.
type Config struct {
	// FlushWindow is how long the coalescer holds the first request of a
	// batch open for others to join (default 1ms). A window elapses OR the
	// pending set reaching MaxBatch triggers a flush, whichever is first.
	FlushWindow time.Duration
	// MaxBatch caps the deduplicated vertices per encoder call (default 64).
	MaxBatch int
	// MaxLag is the staleness budget: a cached embedding is served only
	// while within MaxLag update epochs of every shard's newest observed
	// head (default 8). Ignored in local mode (no cluster client).
	MaxLag uint64
	// CacheCap bounds the embedding cache (default 4096 entries).
	CacheCap int
	// RefreshEvery is the background refresher period; 0 disables it.
	RefreshEvery time.Duration
	// RefreshBudget caps the re-embeddings per refresher tick (default 32).
	RefreshBudget int
	// EdgeType is read by nothing: the encoder fixes the relation it
	// samples. It stays so configurations that set it still compile.
	EdgeType graph.EdgeType
}

func (c *Config) defaults() {
	if c.FlushWindow <= 0 {
		c.FlushWindow = time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxLag == 0 {
		c.MaxLag = 8
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 4096
	}
	if c.RefreshBudget <= 0 {
		c.RefreshBudget = 32
	}
}

// ErrClosed is returned by lookups issued after Close.
var ErrClosed = errors.New("serve: server closed")

// errLocal guards cluster-only operations in local mode.
var errLocal = errors.New("serve: no cluster client (local mode)")

// Server is the serving tier instance. All exported methods are safe for
// concurrent use; Close releases the background goroutines.
type Server struct {
	emb   Embedder
	cl    *cluster.Client // nil in local (single-process) mode
	cfg   Config
	cache *storage.EmbeddingCache
	parts int

	mu      sync.Mutex
	closing bool
	pending []*request
	kick    chan struct{}

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	requests    atomic.Int64 // vertices requested
	batches     atomic.Int64 // encoder flushes
	embedded    atomic.Int64 // vertices through the encoder
	refreshed   atomic.Int64 // dirty vertices re-embedded by the refresher
	invalidated atomic.Int64 // entries dropped by ApplyUpdate rounds

	lookupLat obs.Histogram // EmbedBatch end to end, per call
	flushLat  obs.Histogram // one coalesced encoder flush
}

// request is one caller's cache-miss set, parked until a flush delivers it.
type request struct {
	vs   []graph.ID
	out  [][]float64
	err  error
	done chan struct{}
}

// New builds a serving tier over emb. cl may be nil for local mode: the
// cache then has a single never-advancing shard clock (entries are valid
// forever) and ApplyUpdate is unavailable. With a client, the cache's
// invalidation frontier is seeded from a head probe so scoped invalidation
// is effective from the first request; if the probe fails (a shard is
// down) the tier still starts, falling back to the pure lag bound.
func New(emb Embedder, cl *cluster.Client, cfg Config) *Server {
	cfg.defaults()
	parts := 1
	if cl != nil {
		parts = cl.Assign.P
	}
	s := &Server{
		emb:    emb,
		cl:     cl,
		cfg:    cfg,
		cache:  storage.NewEmbeddingCache(parts, cfg.CacheCap),
		parts:  parts,
		kick:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	if cl != nil {
		if heads, err := cl.ProbeHeads(); err == nil {
			s.cache.InitCovered(heads)
		}
	}
	s.wg.Add(1)
	go s.coalesce()
	if cfg.RefreshEvery > 0 {
		s.wg.Add(1)
		go s.refresher()
	}
	return s
}

// Cache exposes the embedding cache (tests assert invalidation scope and
// hit rates through it).
func (s *Server) Cache() *storage.EmbeddingCache { return s.cache }

// Embed returns v's embedding, from cache when provably fresh, otherwise
// via the next coalesced encoder batch. The returned slice is shared with
// the cache — callers must not mutate it.
func (s *Server) Embed(v graph.ID) ([]float64, error) {
	out, err := s.EmbedBatch([]graph.ID{v})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// EmbedBatch is Embed for several vertices in one call; cache hits are
// served immediately and only the misses ride the coalescer.
func (s *Server) EmbedBatch(vs []graph.ID) ([][]float64, error) {
	defer obsSince(&s.lookupLat, time.Now())
	s.requests.Add(int64(len(vs)))
	out := make([][]float64, len(vs))
	var miss []graph.ID
	var missIdx []int
	for i, v := range vs {
		if vec, ok := s.cache.Get(v, s.cfg.MaxLag); ok {
			out[i] = vec
			continue
		}
		miss = append(miss, v)
		missIdx = append(missIdx, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	r := &request{vs: miss, out: make([][]float64, len(miss)), done: make(chan struct{})}
	if err := s.enqueue(r); err != nil {
		return nil, err
	}
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	for k, i := range missIdx {
		out[i] = r.out[k]
	}
	return out, nil
}

// Score returns the dot-product link score of (u, v); both lookups share
// one coalesced batch.
func (s *Server) Score(u, v graph.ID) (float64, error) {
	out, err := s.EmbedBatch([]graph.ID{u, v})
	if err != nil {
		return 0, err
	}
	return dot(out[0], out[1]), nil
}

// Scored is one TopK result.
type Scored struct {
	V     graph.ID
	Score float64
}

// TopK scores src against every candidate (one coalesced batch for all
// len(cands)+1 lookups) and returns the k highest-scoring candidates in
// descending order.
func (s *Server) TopK(src graph.ID, cands []graph.ID, k int) ([]Scored, error) {
	vs := make([]graph.ID, 0, len(cands)+1)
	vs = append(vs, src)
	vs = append(vs, cands...)
	out, err := s.EmbedBatch(vs)
	if err != nil {
		return nil, err
	}
	scored := make([]Scored, len(cands))
	for i, c := range cands {
		scored[i] = Scored{V: c, Score: dot(out[0], out[i+1])}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].V < scored[j].V
	})
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k], nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ApplyUpdate pushes a graph mutation through the serving tier: edges and
// attribute rows are grouped by owning shard, applied via the update RPC,
// and each shard's reply epoch drives a cache-invalidation round scoped to
// exactly the touched vertices' cached in-neighborhoods. Edges live with
// their source vertex, so a shard's touched set is the sources of its adds
// and removes and the subjects of its attribute rewrites. Returns the
// number of cache entries invalidated.
func (s *Server) ApplyUpdate(add, remove []cluster.RawEdge, attrs []cluster.AttrUpdate) (int, error) {
	if s.cl == nil {
		return 0, errLocal
	}
	reqs := cluster.GroupByPartition(s.cl.Assign.Part, add, remove, attrs)
	parts := make([]int, 0, len(reqs))
	for p := range reqs {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	dropped := 0
	for _, p := range parts {
		req := reqs[p]
		var ur cluster.UpdateReply
		if err := s.cl.T.Update(p, *req, &ur); err != nil {
			return dropped, err
		}
		if ur.Added+ur.Removed+ur.AttrsSet == 0 {
			// Nothing applied, so no epoch was made: the reply carries the
			// shard's current head, which may be another writer's epoch
			// whose round this tier never saw.
			continue
		}
		touched := make([]graph.ID, 0, len(req.Add)+len(req.Remove)+len(req.SetAttr))
		for _, e := range req.Add {
			touched = append(touched, e.Src)
		}
		for _, e := range req.Remove {
			touched = append(touched, e.Src)
		}
		for _, a := range req.SetAttr {
			touched = append(touched, a.V)
		}
		dropped += s.cache.Invalidate(p, ur.Epoch, touched)
	}
	s.invalidated.Add(int64(dropped))
	return dropped, nil
}

// enqueue parks r for the next flush. The closing flag is checked under the
// same lock that guards pending, so a request either errors out here or is
// guaranteed delivery by the coalescer's final drain.
func (s *Server) enqueue(r *request) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrClosed
	}
	s.pending = append(s.pending, r)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return nil
}

func (s *Server) pendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// coalesce is the single flush goroutine: it waits for the first request of
// a batch, holds the window open (cut short if the pending set reaches
// MaxBatch), then flushes. Being the only caller of the encoder, it
// serializes inference batches by construction.
func (s *Server) coalesce() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.closed:
			s.flush()
			return
		case <-s.kick:
		}
		if s.pendingLen() < s.cfg.MaxBatch {
			timer.Reset(s.cfg.FlushWindow)
			waiting := true
			for waiting {
				select {
				case <-timer.C:
					waiting = false
				case <-s.kick:
					if s.pendingLen() >= s.cfg.MaxBatch {
						stopTimer(timer)
						waiting = false
					}
				case <-s.closed:
					stopTimer(timer)
					s.flush()
					return
				}
			}
		}
		s.flush()
	}
}

// stopTimer stops t and drains a pending fire; the caller is the timer's
// only reader.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// flush takes the pending set, dedups it (rechecking the cache — an earlier
// flush may have filled some slots), embeds the remainder in MaxBatch-sized
// chunks, admits the results, and releases every waiting caller.
func (s *Server) flush() {
	s.mu.Lock()
	reqs := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(reqs) == 0 {
		return
	}
	defer obsSince(&s.flushLat, time.Now())
	type slot struct{ req, idx int }
	want := make(map[graph.ID][]slot)
	var order []graph.ID
	for ri, r := range reqs {
		for i, v := range r.vs {
			if vec, ok := s.cache.Get(v, s.cfg.MaxLag); ok {
				r.out[i] = vec
				continue
			}
			if _, seen := want[v]; !seen {
				order = append(order, v)
			}
			want[v] = append(want[v], slot{ri, i})
		}
	}
	if len(order) > 0 {
		s.batches.Add(1)
	}
	var flushErr error
	for off := 0; off < len(order); off += s.cfg.MaxBatch {
		end := off + s.cfg.MaxBatch
		if end > len(order) {
			end = len(order)
		}
		chunk := order[off:end]
		vecs, err := s.embedChunk(chunk)
		if err != nil {
			flushErr = err
			break
		}
		for i, v := range chunk {
			for _, sl := range want[v] {
				reqs[sl.req].out[sl.idx] = vecs[i]
			}
		}
	}
	for _, r := range reqs {
		if flushErr != nil {
			for _, vec := range r.out {
				if vec == nil {
					r.err = flushErr
					break
				}
			}
		}
		close(r.done)
	}
}

// embedChunk runs one encoder call and admits each row with its sampled
// dependency set and the per-shard basis snapshot taken BEFORE the encoder
// read any graph data (an update landing mid-computation must age the
// entry, not be hidden by it). Admission can be rejected on a detected
// race; the computed vector is still returned to the callers.
func (s *Server) embedChunk(chunk []graph.ID) ([][]float64, error) {
	var basis []uint64
	if s.cl != nil {
		basis = s.cl.ObservedHeads(nil)
	}
	m, ctx, err := s.emb.EmbedCtx(chunk)
	if err != nil {
		return nil, err
	}
	s.embedded.Add(int64(len(chunk)))
	vecs := make([][]float64, len(chunk))
	for i, v := range chunk {
		vec := append([]float64(nil), m.Row(i)...)
		vecs[i] = vec
		s.cache.Admit(v, vec, depsOf(ctx, i, v), basis)
	}
	return vecs, nil
}

// depsOf extracts input i's sampled dependency set from the layered
// context: layer L holds prod(HopNums[:L]) sampled vertices per input, laid
// out contiguously, so input i owns the subtree [i*prod, (i+1)*prod) of
// every layer. The input vertex itself is always a dependency (its own
// attribute row feeds the encoder).
func depsOf(ctx *sampling.Context, i int, v graph.ID) []graph.ID {
	set := map[graph.ID]struct{}{v: {}}
	if ctx != nil {
		prod := 1
		for l := 1; l < len(ctx.Layers); l++ {
			prod *= ctx.HopNums[l-1]
			layer := ctx.Layers[l]
			lo, hi := i*prod, (i+1)*prod
			if hi > len(layer) {
				hi = len(layer)
			}
			for _, d := range layer[lo:hi] {
				set[d] = struct{}{}
			}
		}
	}
	deps := make([]graph.ID, 0, len(set))
	for d := range set {
		deps = append(deps, d)
	}
	sort.Slice(deps, func(a, b int) bool { return deps[a] < deps[b] })
	return deps
}

// Stats is a point-in-time snapshot of the tier's counters.
type Stats struct {
	Requests    int64 // vertices requested
	Batches     int64 // encoder flushes
	Embedded    int64 // vertices through the encoder
	Refreshed   int64 // refresher re-embeddings
	Invalidated int64 // entries dropped by ApplyUpdate
	Cache       storage.EmbeddingCacheStats
}

// HitRate is served-from-cache over requested, in [0, 1].
func (st Stats) HitRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return float64(st.Cache.Hits) / float64(st.Requests)
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Load(),
		Batches:     s.batches.Load(),
		Embedded:    s.embedded.Load(),
		Refreshed:   s.refreshed.Load(),
		Invalidated: s.invalidated.Load(),
		Cache:       s.cache.Stats(),
	}
}

// Close stops the coalescer and refresher and waits for them. Requests
// enqueued before Close are still delivered; later ones get ErrClosed.
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		close(s.closed)
	})
	s.wg.Wait()
}
