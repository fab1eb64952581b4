package serve

import (
	"time"

	"repro/internal/obs"
)

// Serving-tier observability: the tier's existing atomic counters (the same
// ones Stats snapshots) are folded into a shared obs.Registry as gauges, and
// two always-on histograms time the request path — lookup is the caller-side
// EmbedBatch latency end to end (cache probe, coalescer wait, encoder flush),
// flush is one coalesced encoder round (dedup, chunked EmbedCtx calls,
// admission). Stats() is unchanged: the registry is a second read path over
// the same instruments, not a replacement. Recording costs one clock read
// plus one atomic add per EmbedBatch call and per flush.

// RegisterObs names the tier's instruments in r under serve.*: request-path
// latency histograms, the lifetime counters behind Stats, and
// embedding-cache occupancy/outcome gauges (hits, misses, stale rejects,
// admits, evictions, entries, dirty backlog). Gauges read the cache under
// its own locks at snapshot time; nothing here is on the lookup path.
func (s *Server) RegisterObs(r *obs.Registry) {
	r.RegisterHistogram("serve.lookup.latency", &s.lookupLat)
	r.RegisterHistogram("serve.flush.latency", &s.flushLat)
	r.Gauge("serve.requests", s.requests.Load)
	r.Gauge("serve.batches", s.batches.Load)
	r.Gauge("serve.embedded", s.embedded.Load)
	r.Gauge("serve.refreshed", s.refreshed.Load)
	r.Gauge("serve.invalidated", s.invalidated.Load)
	cache := s.cache
	r.Gauge("serve.cache.hits", func() int64 { return cache.Stats().Hits })
	r.Gauge("serve.cache.misses", func() int64 { return cache.Stats().Misses })
	r.Gauge("serve.cache.stale_rejects", func() int64 { return cache.Stats().StaleRejects })
	r.Gauge("serve.cache.admits", func() int64 { return cache.Stats().Admits })
	r.Gauge("serve.cache.evicted", func() int64 { return cache.Stats().Evicted })
	r.Gauge("serve.cache.invalidated", func() int64 { return cache.Stats().Invalidated })
	r.Gauge("serve.cache.entries", func() int64 { return int64(cache.Stats().Entries) })
	r.Gauge("serve.cache.dirty", func() int64 { return int64(cache.Stats().Dirty) })
}

// obsSince records the elapsed time since start into h.
func obsSince(h *obs.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}
