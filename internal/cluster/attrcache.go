package cluster

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// AttrFetcher fetches attribute rows for a batch of vertices, optionally at
// a pinned snapshot; Client implements it over Attrs RPCs and AttrCache
// decorates it with a client-side LRU.
type AttrFetcher interface {
	Attrs(vs []graph.ID) ([][]float64, error)
	AttrsAt(vs []graph.ID, pin *sampling.Pin) ([][]float64, error)
}

// AttrCache fronts a Client's attribute fetches with a mutex-guarded LRU
// over hot vertices. Mini-batches over power-law graphs repeat the same hub
// vertices in every hop-0 feature lookup, so without a cache each encode
// pays a full Attrs RPC round; with it only cold vertices cross the wire.
//
// Invalidation is by attribute epoch: every reply from a shard — sampling
// replies included, so even a fully-hot cache that issues no Attrs RPCs of
// its own keeps observing — carries the shard's newest attribute-rewriting
// epoch (AttrHead), and when it advances past what the cache has seen, the
// cache flushes before serving — cached rows therefore never outlive an
// observed attribute update. Admissions are version-gated on the served
// rows' AttrEpoch, so a concurrent fetch that raced a flush cannot re-admit
// rows from before it. Edge-only updates do not advance AttrHead and leave
// the cache warm. The flush is cache-wide (coarse but safe); per-row
// invalidation would need servers to ship touched-vertex lists. Under
// pinned fetches the cache may still serve a row fetched at a newer
// attribute epoch than the pin (rows are not version-keyed); strict
// per-pin attribute isolation requires AttrCache disabled.
//
// AttrCache is safe for concurrent use — the prefetching pipeline's
// workers share one.
type AttrCache struct {
	C *Client

	mu       sync.Mutex
	lru      *storage.LRU[[]float64]
	attrSeen map[int]uint64 // newest AttrEpoch observed per partition
	flushes  int
}

// NewAttrCache creates an attribute LRU over c holding at most capacity
// rows.
func NewAttrCache(c *Client, capacity int) *AttrCache {
	return &AttrCache{C: c, lru: storage.NewLRU[[]float64](capacity), attrSeen: make(map[int]uint64)}
}

// Attrs implements AttrFetcher at the head epoch.
func (a *AttrCache) Attrs(vs []graph.ID) ([][]float64, error) {
	return a.AttrsAt(vs, nil)
}

// AttrsAt implements AttrFetcher: cached rows are served locally, the
// misses are deduplicated and fetched through the client (one Attrs RPC per
// owning server), then admitted — after any attribute-epoch advance flushed
// the stale generation.
func (a *AttrCache) AttrsAt(vs []graph.ID, pin *sampling.Pin) ([][]float64, error) {
	out := make([][]float64, len(vs))
	var missing []graph.ID
	missIdx := make(map[graph.ID][]int)
	a.mu.Lock()
	// Fold in the attr-head watermarks the client observed on ANY reply
	// since our last call; an advance flushes before we serve hits, so a
	// hot cache cannot ride out an attribute update.
	entryAdvanced := false
	for part := range a.C.pins.attrHeads {
		if ah := a.C.pins.attrHeads[part].Load(); ah > a.attrSeen[part] {
			a.attrSeen[part] = ah
			entryAdvanced = true
		}
	}
	if entryAdvanced {
		a.lru.Flush()
		a.flushes++
	}
	for i, v := range vs {
		if idxs, seen := missIdx[v]; seen {
			missIdx[v] = append(idxs, i)
			continue
		}
		if row, ok := a.lru.Get(int64(v)); ok {
			out[i] = row
			continue
		}
		missIdx[v] = []int{i}
		missing = append(missing, v)
	}
	a.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	// replyEpochs records the attr epoch each partition served THIS call;
	// the note callback runs sequentially on this goroutine.
	replyEpochs := make(map[int]uint64)
	rows, err := a.C.attrsObserve(missing, pin, func(part int, attrEpoch uint64) {
		replyEpochs[part] = attrEpoch
	})
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	advanced := false
	for part, ae := range replyEpochs {
		if ae > a.attrSeen[part] {
			a.attrSeen[part] = ae
			advanced = true
		}
	}
	if advanced {
		a.lru.Flush()
		a.flushes++
	}
	// Admit only rows at least as new as the watermark of their serving
	// partition: a concurrent AttrsAt may have observed a newer attribute
	// epoch (and flushed) between our fetch and this admission, and
	// re-admitting our older rows would poison the cache past the flush.
	for j, v := range missing {
		if ae, ok := replyEpochs[a.C.Assign.Part(v)]; ok && ae >= a.attrSeen[a.C.Assign.Part(v)] {
			a.lru.Put(int64(v), rows[j])
		}
	}
	a.mu.Unlock()
	for j, v := range missing {
		for _, i := range missIdx[v] {
			out[i] = rows[j]
		}
	}
	return out, nil
}

// HitRate reports the cache's cumulative hit rate.
func (a *AttrCache) HitRate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lru.HitRate()
}

// Len reports how many rows are cached.
func (a *AttrCache) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lru.Len()
}

// Flushes reports how many attribute-epoch invalidations the cache has
// performed.
func (a *AttrCache) Flushes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushes
}
