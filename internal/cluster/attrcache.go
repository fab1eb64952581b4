package cluster

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/storage"
)

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
// invalidation would need servers to ship touched-vertex lists.
//
// Each row is cached with the epoch it was installed at (AttrsReply.Since).
// A pinned read is served from the cache only when that epoch is at or
// below the pin's epoch on the row's shard: a row rewritten after the pin
// was leased is fetched at the pin instead, so a prefetching pipeline with
// older pins in flight reads each pin's own attributes.
//
// AttrCache is safe for concurrent use — the prefetching pipeline's
// workers share one.
type AttrCache struct {
	C *Client

	mu       sync.Mutex
	lru      *storage.LRU[attrRow]
	attrSeen map[int]uint64 // newest AttrEpoch observed per partition
	flushes  int
}

// attrRow is one cached attribute row and the epoch it was installed at.
type attrRow struct {
	row   []float64
	since uint64
}

// NewAttrCache creates an attribute LRU over c holding at most capacity
// rows.
func NewAttrCache(c *Client, capacity int) *AttrCache {
	return &AttrCache{C: c, lru: storage.NewLRU[attrRow](capacity), attrSeen: make(map[int]uint64)}
}

// Attrs is AttrsAt at the head epoch.
func (a *AttrCache) Attrs(vs []graph.ID) ([][]float64, error) {
	return a.AttrsAt(vs, nil)
}

// AttrsAt is Client.AttrsAt through the cache: cached rows are served
// locally (under a pin, only rows installed at or before it), the misses
// are deduplicated and fetched through the client (one Attrs RPC per
// owning server), then admitted — after any attribute-epoch advance
// flushed the stale generation.
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
		if e, ok := a.lru.Get(int64(v)); ok && (pin == nil || e.since <= pin.Epochs[a.C.Assign.Part(v)]) {
			out[i] = e.row
			continue
		}
		missIdx[v] = []int{i}
		missing = append(missing, v)
	}
	a.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	// replyEpochs records the attr epoch each partition served THIS call,
	// since the install epoch of each fetched row; the note callback runs
	// sequentially on this goroutine.
	replyEpochs := make(map[int]uint64)
	since := make(map[graph.ID]uint64, len(missing))
	rows, err := a.C.attrsObserve(missing, pin, func(part int, batch []graph.ID, reply *AttrsReply) {
		replyEpochs[part] = reply.AttrEpoch
		for j, v := range batch {
			since[v] = reply.Since[j]
		}
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
			a.lru.Put(int64(v), attrRow{row: rows[j], since: since[v]})
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
