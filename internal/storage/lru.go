// Package storage holds the caches of the AliGraph storage layer
// (Section 3.2) that sit in front of the shards: neighbor caching of
// important vertices selected by the Imp^(k) metric (Algorithm 2:
// SelectImportant picks the vertices, NewStaticCache caches their
// neighbor lists), the serving tier's EmbeddingCache, and the generic LRU
// behind the LRU neighbor cache. A cluster worker's
// client holds the neighbor cache; a single-process graph has no remote
// fetch for it to save. The shards' own layout, adjacency stored apart
// from attribute rows coded against each base's table of distinct
// patterns, is internal/version's.
//
// # Epoch-aware neighbor-cache seam
//
// The NeighborCache seam is version-aware: Get takes the update epoch the
// caller is reading at (a pinned snapshot's epoch, or the newest head the
// client has observed) and Observe records, for every fetched list, the
// epoch it was served at plus the epoch it was installed at (the Since
// stamp on sampling replies, backed by internal/version's per-entry
// stamps). Entries therefore carry an exact validity interval
// [since, through]: static caches re-validate their fixed membership when
// replies confirm a vertex untouched, the LRU tags entries and misses on
// mismatch, and no strategy can ever serve a pinned batch a neighbor list
// fetched at a different update generation. Because batched draws are
// vertex-keyed (sampling.DrawVertex), these conservative misses change RPC
// traffic but never the values a fixed-seed training run consumes.
//
// The seam is one interface, and every cache implements all of it: Get
// classifies its misses (absent entry or epoch miss) for the client's
// per-lane counters, Admits tells producers whether full lists are worth shipping, and Flush
// drops validity state when a shard's epoch numbering restarts. The
// implementations are NoCache, the StaticCache (importance-selected, or
// random for the Figure 9 baseline) and the LRUNeighborCache.
package storage

import "container/list"

// LRU is a fixed-capacity least-recently-used cache from int64 keys to
// values of type V. It is not safe for concurrent use; callers that share a
// cache across goroutines hold a lock around it (LRUNeighborCache does).
type LRU[V any] struct {
	cap   int
	ll    *list.List
	items map[int64]*list.Element
}

type lruEntry[V any] struct {
	key int64
	val V
}

// NewLRU creates an LRU cache holding at most capacity entries.
// A capacity <= 0 yields a cache that stores nothing.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{cap: capacity, ll: list.New(), items: make(map[int64]*list.Element)}
}

// Get returns the cached value for key and whether it was present,
// promoting the entry to most-recently-used.
func (c *LRU[V]) Get(key int64) (V, bool) {
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least-recently-used entry when
// over capacity.
func (c *LRU[V]) Put(key int64, val V) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry[V]).val = val
		return
	}
	e := c.ll.PushFront(&lruEntry[V]{key, val})
	c.items[key] = e
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry[V]).key)
		}
	}
}

// Len reports the number of cached entries.
func (c *LRU[V]) Len() int { return c.ll.Len() }

// Flush drops every cached entry.
func (c *LRU[V]) Flush() {
	c.ll.Init()
	c.items = make(map[int64]*list.Element)
}
