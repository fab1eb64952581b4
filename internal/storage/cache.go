package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// NeighborCache is the pluggable neighbor-caching strategy evaluated in
// Figure 9 of the paper: the importance-based cache (AliGraph's strategy),
// a random static cache, and an LRU replacing cache. A cache answers
// "do I hold the out-neighbor list of v under edge type t locally, valid
// at update epoch `epoch`?"; on a miss the caller's draw goes to the
// owning server. Entries are keyed by (vertex, edge type) — heterogeneous
// graphs must never serve one type's neighbor list to a query about
// another — and carry an epoch-validity interval, so under churn a pinned
// batch is never served a neighbor list fetched at a different update
// generation.
//
// Validity model: every entry holds [since, through] — `since` is the epoch
// the served list was installed at (the Since stamp servers put on replies;
// 0 for lists predating every update) and `through` the newest epoch the
// list is known unchanged at (the epoch of the latest fetch that returned
// it). A Get at epoch e hits only when since <= e <= through; an Observe of
// the same list at a newer epoch cheaply extends `through` (re-validation),
// while an Observe with a newer `since` supersedes the entry. Because the
// batched draw engine is vertex-keyed (sampling.DrawVertex draws from the
// served list under the hop seed and the vertex alone), a conservative
// epoch miss costs one re-validating fetch but can never change the values
// a fixed-seed training run consumes.
type NeighborCache interface {
	// Get returns the cached type-t out-neighbor list of v when it is
	// valid at update epoch `epoch` (KindHit), and otherwise classifies the
	// miss: no entry (KindMiss), or an entry invalid at that epoch
	// (KindEpochMiss).
	Get(v graph.ID, t graph.EdgeType, epoch uint64) ([]graph.ID, GetKind)
	// Observe notifies the cache of a fetch result so replacing strategies
	// can admit it and every strategy can track validity: the list was
	// served at `epoch` and was installed at `since` (since <= epoch).
	Observe(v graph.ID, t graph.EdgeType, epoch, since uint64, nbrs []graph.ID)
	// Admits reports whether Observe can ever admit new entries. Static
	// caches and NoCache return false — they only re-validate entries they
	// already hold — so data producers skip preparing admission payloads
	// nobody keeps.
	Admits() bool
	// Flush drops all runtime validity state. Clients call it when a
	// shard's epoch numbering restarts (a lease reply reveals a head
	// regression): intervals recorded under the old incarnation are
	// incomparable with the new one, so replacing caches drop their entries
	// and static caches reset their re-validation watermarks to the build
	// epoch.
	Flush()
	// Name identifies the strategy in reports.
	Name() string
	// CachedVertices reports how many vertices currently have neighbor
	// lists cached.
	CachedVertices() int
}

// GetKind classifies one cache lookup.
type GetKind uint8

const (
	// KindMiss: no entry for the key.
	KindMiss GetKind = iota
	// KindHit: entry present and valid at the requested epoch.
	KindHit
	// KindEpochMiss: entry present but invalid at the requested epoch — the
	// price of version safety under churn.
	KindEpochMiss
)

// cacheKey packs (vertex, edge type) into an int64 cache key. Edge types
// get 13 bits, so schemas are bounded to MaxCacheEdgeTypes —
// checkEdgeTypes enforces it at cache construction rather than letting
// oversized schemas silently collide keys.
func cacheKey(v graph.ID, t graph.EdgeType) int64 {
	return int64(v)<<13 | int64(t&0x1fff)
}

// MaxCacheEdgeTypes is the largest edge-type count the cache key can
// distinguish.
const MaxCacheEdgeTypes = 1 << 13

func checkEdgeTypes(n int) {
	if n >= MaxCacheEdgeTypes {
		panic(fmt.Sprintf("storage: %d edge types exceed the neighbor-cache key space (%d)", n, MaxCacheEdgeTypes))
	}
}

// ---------------------------------------------------------------------------
// Static caches (importance-based, Algorithm 2 lines 5-9; random baseline)

// staticEntry is one StaticCache neighbor list with its epoch validity.
// The list and `since` are fixed at construction; `through` is a monotone
// watermark advanced lock-free by concurrent re-validations.
type staticEntry struct {
	nbrs    []graph.ID
	since   uint64
	through atomic.Uint64
}

func (e *staticEntry) validAt(epoch uint64) bool {
	return e.since <= epoch && epoch <= e.through.Load()
}

// extendThrough raises the unchanged-through watermark to epoch.
func (e *staticEntry) extendThrough(epoch uint64) {
	for {
		old := e.through.Load()
		if epoch <= old || e.through.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// StaticCache holds the out-neighbor lists of a fixed vertex set under
// every edge type; NewStaticCache takes the vertices. Algorithm 2
// is SelectImportant (every vertex with Imp^(k) >= tau) fed to
// NewStaticCache; NewImportanceCacheTopFraction ranks by the same
// Imp^(k)(v) = D_i^(k)(v)/D_o^(k)(v), which is power-law distributed
// (Theorem 2), so a small threshold already restricts the cache to a small
// vertex fraction.
//
// Entries are built from the epoch-0 graph (since = through = 0): the cache
// answers a query at a later epoch only after a fetch re-validated that the
// vertex is still untouched there (Observe with Since == 0 extends the
// entry). Membership is fixed at construction, so Observe never admits.
// Get takes no lock: the entry map is read-only after construction and the
// watermarks are atomic.
type StaticCache struct {
	name     string
	entries  map[int64]*staticEntry
	vertices int // vertices with cached neighborhoods
}

// NewStaticCache caches the out-neighbor list of every vertex in vs under
// every edge type, reporting itself as name. Each list is held exactly as a
// server serves it (duplicates and self-loops included), so a hit draws
// what a fetch would.
func NewStaticCache(g *graph.Graph, name string, vs []graph.ID) *StaticCache {
	nt := g.Schema().NumEdgeTypes()
	checkEdgeTypes(nt)
	c := &StaticCache{name: name, entries: make(map[int64]*staticEntry)}
	for _, v := range vs {
		for t := 0; t < nt; t++ {
			ns := g.OutNeighbors(v, graph.EdgeType(t))
			c.entries[cacheKey(v, graph.EdgeType(t))] = &staticEntry{nbrs: append([]graph.ID(nil), ns...)}
		}
	}
	if nt > 0 {
		// Every cached vertex holds nt entries, whatever repeats vs has.
		c.vertices = len(c.entries) / nt
	}
	return c
}

// SelectImportant returns the vertices with Imp^(h)(v) >= tau, for depth h.
// Importance is computed for all vertices in one parallel batch (shared
// scratch BFS per worker) rather than one map-based BFS per vertex.
func SelectImportant(g *graph.Graph, h int, tau float64) []graph.ID {
	imps := g.ImportanceAll(h)
	var out []graph.ID
	for v, imp := range imps {
		if imp >= tau {
			out = append(out, graph.ID(v))
		}
	}
	return out
}

// NewImportanceCacheTopFraction caches the top-frac fraction of vertices
// ranked by Imp^(h), h the depth of the importance score; used by the
// Figure 9 sweep where the x-axis is the cached-vertex percentage rather
// than the threshold.
func NewImportanceCacheTopFraction(g *graph.Graph, h int, frac float64) *StaticCache {
	imps := g.ImportanceAll(h)
	order := make([]graph.ID, len(imps))
	for i := range order {
		order[i] = graph.ID(i)
	}
	sort.Slice(order, func(a, b int) bool { return imps[order[a]] > imps[order[b]] })
	return NewStaticCache(g, "importance", order[:int(frac*float64(len(order)))])
}

func (c *StaticCache) Get(v graph.ID, t graph.EdgeType, epoch uint64) ([]graph.ID, GetKind) {
	e, ok := c.entries[cacheKey(v, t)]
	switch {
	case !ok:
		return nil, KindMiss
	case e.validAt(epoch):
		return e.nbrs, KindHit
	default:
		return nil, KindEpochMiss
	}
}

// Observe re-validates: an existing entry whose install stamp matches the
// reply's Since is the same list, so its validity extends to the serving
// epoch; anything else is ignored.
func (c *StaticCache) Observe(v graph.ID, t graph.EdgeType, epoch, since uint64, _ []graph.ID) {
	if e, ok := c.entries[cacheKey(v, t)]; ok && e.since == since {
		e.extendThrough(epoch)
	}
}

func (c *StaticCache) Admits() bool { return false }

// Flush resets every entry's re-validation watermark to the build epoch.
func (c *StaticCache) Flush() {
	for _, e := range c.entries {
		e.through.Store(0)
	}
}

func (c *StaticCache) Name() string { return c.name }

func (c *StaticCache) CachedVertices() int { return c.vertices }

// ---------------------------------------------------------------------------
// LRU replacing cache (Figure 9 baseline)

// lruEntryVal is one LRU neighbor-cache value: the list plus its epoch
// validity interval. Values are replaced whole under the cache mutex, so no
// atomics are needed here.
type lruEntryVal struct {
	nbrs           []graph.ID
	since, through uint64
}

// LRUNeighborCache admits every fetched neighborhood and evicts the least
// recently used, holding at most capacity (vertex, edge type) entries. Frequent
// replacement churn is its cost relative to the static importance cache.
// Entries are epoch-tagged: a Get at an epoch outside an entry's validity
// interval misses (counted separately as an epoch miss) and the
// re-validating fetch either extends the entry or supersedes it — the
// "tags entries and misses on mismatch" discipline, which keeps the cache
// warm across epochs for untouched vertices instead of flushing wholesale.
// Unlike the static caches, every access mutates recency state, so
// operations are serialized by a mutex; this keeps a shared cluster.Client
// safe for concurrent samplers.
type LRUNeighborCache struct {
	mu  sync.Mutex
	lru *LRU[*lruEntryVal]

	hits, misses, epochMisses int64
}

// NewLRUNeighborCache creates an LRU neighbor cache with the given entry
// capacity.
func NewLRUNeighborCache(capacity int) *LRUNeighborCache {
	return &LRUNeighborCache{lru: NewLRU[*lruEntryVal](capacity)}
}

func (c *LRUNeighborCache) Get(v graph.ID, t graph.EdgeType, epoch uint64) ([]graph.ID, GetKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Get(cacheKey(v, t)); ok {
		if e.since <= epoch && epoch <= e.through {
			c.hits++
			return e.nbrs, KindHit
		}
		c.epochMisses++
		return nil, KindEpochMiss
	}
	c.misses++
	return nil, KindMiss
}

func (c *LRUNeighborCache) Observe(v graph.ID, t graph.EdgeType, epoch, since uint64, nbrs []graph.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey(v, t)
	if e, ok := c.lru.Get(key); ok {
		if e.since == since {
			// Same installed list observed at a newer epoch: re-validate.
			if epoch > e.through {
				e.through = epoch
			}
			return
		}
		if since < e.since {
			// An older-generation fetch (a pinned batch still recycling at
			// an epoch the entry's list supersedes) must not evict the
			// newer entry — replacing it would ping-pong re-validation
			// fetches between the pin and the head for the pin's lifetime.
			return
		}
	}
	c.lru.Put(key, &lruEntryVal{nbrs: nbrs, since: since, through: epoch})
}

func (c *LRUNeighborCache) Admits() bool { return true }

// Flush drops every entry (epoch numbering restarted on a shard); the
// cumulative counters survive.
func (c *LRUNeighborCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Flush()
}

func (c *LRUNeighborCache) Name() string { return "lru" }

// CachedVertices reports the resident entry count — (vertex, edge type)
// keys, an upper bound on distinct cached vertices.
func (c *LRUNeighborCache) CachedVertices() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Counters reports cumulative hits, plain misses (entry absent) and epoch
// misses (entry present but invalid at the requested epoch). The epoch-miss
// rate is the price of version safety under churn; benchmarks report it
// alongside the hit rate.
func (c *LRUNeighborCache) Counters() (hits, misses, epochMisses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.epochMisses
}

// HitRate reports hits / (hits + misses + epochMisses), or 0 before any
// access.
func (c *LRUNeighborCache) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses + c.epochMisses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// NoCache disables neighbor caching; every access is remote.
type NoCache struct{}

func (NoCache) Get(graph.ID, graph.EdgeType, uint64) ([]graph.ID, GetKind)   { return nil, KindMiss }
func (NoCache) Observe(graph.ID, graph.EdgeType, uint64, uint64, []graph.ID) {}
func (NoCache) Admits() bool                                                 { return false }
func (NoCache) Flush()                                                       {}
func (NoCache) Name() string                                                 { return "none" }
func (NoCache) CachedVertices() int                                          { return 0 }
