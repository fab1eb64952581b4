package storage

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/graph"
)

// EmbeddingCache is the serving tier's epoch-aware embedding store: the
// validity-interval seam of the neighbor caches, applied to computed
// embeddings instead of adjacency lists. An entry is an embedding
// vector plus the exact dependency set it was computed from (the sampled
// k-hop context) and a per-shard basis — the epochs each shard had been
// observed at when the computation started.
//
// Freshness has one mechanism, exact scoped invalidation, and one backstop,
// the lag bound. Each shard keeps two epochs:
//
//   - heads: the newest epoch observed, by any means (reply stamps, head
//     probes). The staleness clock.
//   - covered: the invalidation frontier — the newest epoch up to which
//     every epoch's touched set has been applied to the cache. It is
//     derived from the ring of recent Invalidate rounds (the one admission
//     checks read): it advances while the ring holds the round numbered
//     covered+1, whatever order the rounds arrived in. Entries that
//     survive every round up to covered are current at covered.
//
// Get serves an entry only while max over shards of (heads - max(basis,
// covered)) is within the caller's lag budget: a served embedding can never
// be more than maxLag update epochs older than the newest state observed
// anywhere. An epoch applied out of band (by a writer that does not route
// through Invalidate) leaves a gap no round fills, so covered stops there,
// the lag grows, and the bound forces recomputation — the fallback a shared
// live graph needs.
//
// Invalidated and lag-expired vertices accumulate in a hotness-ranked dirty
// queue (TakeDirty) for a background refresher to re-embed ahead of demand.
// Eviction is plain LRU.
//
// All methods are safe for concurrent use.
type EmbeddingCache struct {
	mu sync.Mutex

	cap     int
	entries map[graph.ID]*embEntry
	order   *list.List // front = most recently used

	// dependents inverts the dependency sets: dependency vertex -> the
	// cached vertices whose embeddings consumed it. An update touching d
	// invalidates exactly dependents[d] — the cached part of d's k-hop
	// in-neighborhood — and nothing else.
	dependents map[graph.ID]map[graph.ID]struct{}

	heads   []uint64
	covered []uint64

	// rounds is a bounded ring of recent invalidation rounds. Admissions
	// are checked against it: an entry whose basis snapshot predates a
	// round that touched one of its dependencies was computed from data of
	// unknown generation and is rejected. ringFloor tracks, per shard, the
	// newest epoch evicted from the ring; a basis older than the floor can
	// no longer be checked and is rejected too (conservative). The covered
	// frontier advances over the rounds the ring holds.
	rounds    []invalRound
	ringHead  int
	ringFloor []uint64

	dirty map[graph.ID]int64 // vertex -> hotness (hits + 1) at drop time

	stats EmbeddingCacheStats
}

type embEntry struct {
	v     graph.ID
	vec   []float64
	deps  []graph.ID
	basis []uint64
	elem  *list.Element
	hits  int64
}

type invalRound struct {
	part    int
	epoch   uint64
	touched map[graph.ID]struct{}
}

// EmbeddingCacheStats are the cache's cumulative counters (plus the current
// entry and dirty-queue sizes).
type EmbeddingCacheStats struct {
	Hits, Misses, StaleRejects    int64
	Admits, AdmitRejects, Evicted int64
	Invalidated                   int64
	Entries, Dirty                int
}

// invalRingCap bounds the invalidation-round ring; 256 rounds comfortably
// covers every admission in flight during a churn storm, and every round
// waiting for a late predecessor before the frontier can pass it.
const invalRingCap = 256

// NewEmbeddingCache creates a cache over parts shards holding at most cap
// entries (cap <= 0 means 1).
func NewEmbeddingCache(parts, cap int) *EmbeddingCache {
	if parts < 1 {
		parts = 1
	}
	if cap < 1 {
		cap = 1
	}
	return &EmbeddingCache{
		cap:        cap,
		entries:    make(map[graph.ID]*embEntry),
		order:      list.New(),
		dependents: make(map[graph.ID]map[graph.ID]struct{}),
		heads:      make([]uint64, parts),
		covered:    make([]uint64, parts),
		ringFloor:  make([]uint64, parts),
		dirty:      make(map[graph.ID]int64),
	}
}

// markDirtyLocked queues v for re-embedding, ranked by its demand: the
// hits it served plus one for the event queueing it.
func (c *EmbeddingCache) markDirtyLocked(v graph.ID, hits int64) {
	if h := hits + 1; h > c.dirty[v] {
		c.dirty[v] = h
	}
}

// InitCovered seeds the heads clock AND the invalidation frontier from a
// startup head probe: epochs at or below the probe predate every cache
// entry, so they count as processed. Call once, before serving.
func (c *EmbeddingCache) InitCovered(heads []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := 0; p < len(c.heads) && p < len(heads); p++ {
		if heads[p] > c.heads[p] {
			c.heads[p] = heads[p]
		}
		if heads[p] > c.covered[p] {
			c.covered[p] = heads[p]
		}
		if heads[p] > c.ringFloor[p] {
			c.ringFloor[p] = heads[p]
		}
	}
}

// NoteHeads raises the per-shard staleness clock to the observed heads.
func (c *EmbeddingCache) NoteHeads(heads []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := 0; p < len(c.heads) && p < len(heads); p++ {
		if heads[p] > c.heads[p] {
			c.heads[p] = heads[p]
		}
	}
}

// lagLocked reports the entry's worst-shard staleness: max over shards of
// heads minus the effective (basis-or-covered) proven epoch.
func (c *EmbeddingCache) lagLocked(e *embEntry) uint64 {
	lag := uint64(0)
	for p := range c.heads {
		valid := e.basis[p]
		if c.covered[p] > valid {
			valid = c.covered[p]
		}
		if c.heads[p] > valid && c.heads[p]-valid > lag {
			lag = c.heads[p] - valid
		}
	}
	return lag
}

// Get returns v's cached embedding if it is present and within maxLag
// update epochs of every shard's newest observed head. A stale entry is not
// served; it is queued dirty so the refresher re-embeds it.
// The returned slice is shared — callers must not mutate it.
func (c *EmbeddingCache) Get(v graph.ID, maxLag uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[v]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if c.lagLocked(e) > maxLag {
		c.stats.StaleRejects++
		c.markDirtyLocked(v, e.hits)
		return nil, false
	}
	e.hits++
	c.order.MoveToFront(e.elem)
	c.stats.Hits++
	return e.vec, true
}

// Admit installs v's embedding, computed from deps (the sampled context,
// including v itself) with the per-shard basis snapshot taken BEFORE the
// computation read any graph data. The admission is rejected when an
// invalidation round newer than the basis touched one of the deps — the
// computation may have consumed data of an unknown generation — or when the
// basis is too old for the retained ring to prove otherwise.
func (c *EmbeddingCache) Admit(v graph.ID, vec []float64, deps []graph.ID, basis []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := make([]uint64, len(c.heads))
	for p := range b {
		if p < len(basis) {
			b[p] = basis[p]
		}
		if b[p] < c.ringFloor[p] {
			// Rounds the basis would need checking against are gone.
			c.stats.AdmitRejects++
			return false
		}
	}
	for _, r := range c.rounds {
		if r.touched == nil || r.epoch <= b[r.part] {
			continue
		}
		for _, d := range deps {
			if _, hit := r.touched[d]; hit {
				c.stats.AdmitRejects++
				return false
			}
		}
	}

	if old, ok := c.entries[v]; ok {
		c.removeLocked(old)
	}
	for len(c.entries) >= c.cap {
		c.removeLocked(c.order.Back().Value.(*embEntry))
		c.stats.Evicted++
	}
	e := &embEntry{v: v, vec: vec, deps: deps, basis: b}
	e.elem = c.order.PushFront(e)
	c.entries[v] = e
	for _, d := range deps {
		set, ok := c.dependents[d]
		if !ok {
			set = make(map[graph.ID]struct{})
			c.dependents[d] = set
		}
		set[v] = struct{}{}
	}
	delete(c.dirty, v) // freshly embedded: no longer needs refreshing
	c.stats.Admits++
	return true
}

// removeLocked unlinks e from the entry map, the LRU order and the
// dependency index.
func (c *EmbeddingCache) removeLocked(e *embEntry) {
	delete(c.entries, e.v)
	c.order.Remove(e.elem)
	for _, d := range e.deps {
		if set, ok := c.dependents[d]; ok {
			delete(set, e.v)
			if len(set) == 0 {
				delete(c.dependents, d)
			}
		}
	}
}

// Invalidate applies one update round: epoch is the new head epoch of part,
// touched are the vertices whose adjacency or attributes the round rewrote.
// Exactly the cached entries depending on a touched vertex — the cached
// part of the touched set's k-hop in-neighborhood — are dropped (and queued
// dirty, hotness-ranked, for proactive re-embedding); every other entry is
// untouched and, once every epoch up to this one has had its round, current
// at epoch. Rounds may arrive in any order. Returns how many entries were
// dropped.
func (c *EmbeddingCache) Invalidate(part int, epoch uint64, touched []graph.ID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if part < 0 || part >= len(c.heads) {
		return 0
	}
	dropped := 0
	for _, d := range touched {
		set, ok := c.dependents[d]
		if !ok {
			continue
		}
		for v := range set {
			e := c.entries[v]
			c.markDirtyLocked(v, e.hits)
			c.removeLocked(e)
			dropped++
		}
	}
	c.stats.Invalidated += int64(dropped)
	if epoch > c.heads[part] {
		c.heads[part] = epoch
	}
	// Record the round for admission-race checks and the frontier.
	ts := make(map[graph.ID]struct{}, len(touched))
	for _, d := range touched {
		ts[d] = struct{}{}
	}
	r := invalRound{part: part, epoch: epoch, touched: ts}
	if len(c.rounds) < invalRingCap {
		c.rounds = append(c.rounds, r)
	} else {
		old := c.rounds[c.ringHead]
		if old.epoch > c.ringFloor[old.part] {
			c.ringFloor[old.part] = old.epoch
		}
		c.rounds[c.ringHead] = r
		c.ringHead = (c.ringHead + 1) % invalRingCap
	}
	// Advance the frontier over every epoch whose round the ring holds: a
	// round that arrived ahead of its predecessor (two callers' update
	// replies crossing) counts once the predecessor lands. A gap no round
	// fills — an epoch applied out of band — stops it, and the lag bound
	// takes over.
	for c.ringHoldsLocked(part, c.covered[part]+1) {
		c.covered[part]++
	}
	return dropped
}

// ringHoldsLocked reports whether the round ring holds part's round epoch.
func (c *EmbeddingCache) ringHoldsLocked(part int, epoch uint64) bool {
	for _, r := range c.rounds {
		if r.part == part && r.epoch == epoch {
			return true
		}
	}
	return false
}

// TakeDirty pops up to max invalidated or lag-expired vertices, hottest
// first — the refresher's work queue for re-embedding ahead of demand.
func (c *EmbeddingCache) TakeDirty(max int) []graph.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if max <= 0 || len(c.dirty) == 0 {
		return nil
	}
	type hv struct {
		v graph.ID
		h int64
	}
	all := make([]hv, 0, len(c.dirty))
	for v, h := range c.dirty {
		all = append(all, hv{v, h})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].h != all[j].h {
			return all[i].h > all[j].h
		}
		return all[i].v < all[j].v
	})
	if max > len(all) {
		max = len(all)
	}
	out := make([]graph.ID, max)
	for i := 0; i < max; i++ {
		out[i] = all[i].v
		delete(c.dirty, all[i].v)
	}
	return out
}

// Contains reports whether v is cached, regardless of staleness (tests
// assert invalidation scope with it; it does not touch LRU order or stats).
func (c *EmbeddingCache) Contains(v graph.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[v]
	return ok
}

// Len reports the current entry count.
func (c *EmbeddingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache counters.
func (c *EmbeddingCache) Stats() EmbeddingCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Dirty = len(c.dirty)
	return st
}

// Flush drops every entry and the dirty queue (epoch-numbering restarts).
func (c *EmbeddingCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[graph.ID]*embEntry)
	c.order.Init()
	c.dependents = make(map[graph.ID]map[graph.ID]struct{})
	c.dirty = make(map[graph.ID]int64)
}
