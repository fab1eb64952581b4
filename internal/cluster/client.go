package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// Client is a worker's view of the distributed graph: it implements the
// batch-first sampling.Source seam (plus the BatchSampler capability) over
// live graph servers. Every hop of a mini-batch is served by deduplicating
// hub vertices (power-law batches repeat the same hot vertices), answering
// what it can from the pluggable NeighborCache (Section 3.2), and stitching
// the cache misses into one sub-batch per owning server exactly as Section
// 3.3 describes ("we first partition the vertices into sub-batches, and the
// context of each sub-batch will be stitched together after being
// returned"). Fixed-width draws additionally move the sampling to the
// server (SampleNeighbors RPC), so hub adjacency lists never cross the
// network.
//
// A Client is safe for concurrent use as long as its cache is (the static
// importance cache and the locked LRU both are).
type Client struct {
	Assign *partition.Assignment
	T      Transport
	Cache  storage.NeighborCache

	// Degrade enables graceful degradation: when a shard's call fails with
	// a transport-level (transient/shard-down) error, its hops are served
	// from stale cache entries (storage.StaleReader) via the slot-pure draw
	// path instead of failing the batch — TRAVERSE and NegativePool simply
	// skip the dead shard's mass, attribute rows fall back to zeros. Every
	// degraded draw is counted in DegradedDraws. Set it before training;
	// off (the default) such errors surface to the caller.
	Degrade bool

	// Fanout bounds how many per-shard sub-requests of one scatter round
	// run concurrently: 0 (the default) launches every target shard at
	// once, so a multi-shard hop costs max(RTT) instead of shards x RTT;
	// 1 restores strictly sequential issue order (benchmarks compare
	// against it); N > 1 caps in-flight sub-requests at N. Reply values
	// are identical in every mode — draws are slot-/seed-pure and replies
	// are gathered in sorted part order — only latency changes.
	Fanout int

	// cacheAdmits records whether Cache.Observe can admit entries; when it
	// cannot (static caches), SampleBatch skips requesting admission lists.
	cacheAdmits bool

	// kinded is Cache when it classifies misses (storage.KindedGetter), so
	// per-hop instrumentation splits epoch misses from absent-entry misses
	// without a second probe; nil otherwise.
	kinded storage.KindedGetter

	// pins manages the shared, reference-counted epoch pin (see pin.go);
	// Client implements sampling.PinSource with it.
	pins *pinManager

	// plan is the active sampling plan (see plan.go / internal/plan): per
	// (edge type, hop) lane it chooses between cached client-side draws,
	// server-side draws and the hybrid default, plus whether the lane may
	// admit into a replacing cache. Nil means the built-in hybrid behavior
	// everywhere. Swapped atomically (SetPlan) so the adaptive planner can
	// re-plan mid-training; every strategy yields bit-identical draws.
	plan atomic.Pointer[plan.Plan]

	degradedDraws obs.Counter

	// met holds the per-RPC observability counters behind Metrics(), and
	// hops the per-(edge type, hop) sampling lanes (see fanout.go). Both are
	// always on; RegisterObs names them in a registry.
	met  clientMetrics
	hops hopMetrics

	statsMu sync.Mutex
	stats   []StatsReply // nil until a full fetch succeeds
}

// NewClient creates a client. A nil cache disables caching.
func NewClient(a *partition.Assignment, t Transport, cache storage.NeighborCache) *Client {
	if cache == nil {
		cache = storage.NoCache{}
	}
	admits := true
	if ad, ok := cache.(storage.Admitter); ok {
		admits = ad.Admits()
	}
	kinded, _ := cache.(storage.KindedGetter)
	return &Client{Assign: a, T: t, Cache: cache, cacheAdmits: admits, kinded: kinded, pins: newPinManager(a.P)}
}

// cacheEpoch resolves the update epoch a cache lookup must be valid at:
// the pinned epoch of the owning shard when the read is pinned, otherwise
// the newest head the client has observed from that shard. Routing every
// cache probe through it is what makes the neighbor caches version-safe —
// a pinned batch can never consume a list fetched at a different epoch.
func (c *Client) cacheEpoch(pin *sampling.Pin, part int) uint64 {
	if pin != nil {
		return pin.Epochs[part]
	}
	return c.pins.heads[part].Load()
}

// replySince extracts the j-th install stamp of a reply's Since array,
// tolerating absent arrays from down-level servers. The fallback is the
// reply's serving epoch: the list is then only claimed valid at the single
// point it was observed ([epoch, epoch]) — claiming 0 would assert it
// predates every update, exactly the stale-entry admission the seam
// exists to prevent.
func replySince(since []uint64, j int, servedEpoch uint64) uint64 {
	if j < len(since) {
		return since[j]
	}
	return servedEpoch
}

// Neighbors returns the out-neighbors of v under edge type t, from cache if
// possible.
func (c *Client) Neighbors(v graph.ID, t graph.EdgeType) ([]graph.ID, error) {
	p := c.Assign.Part(v)
	if ns, ok := c.Cache.Get(v, t, 1, c.cacheEpoch(nil, p)); ok {
		return ns, nil
	}
	var reply NeighborsReply
	req := NeighborsRequest{Vertices: []graph.ID{v}, EdgeType: t}
	if err := c.timed(MNeighbors, func() error { return c.T.Neighbors(p, req, &reply) }); err != nil {
		return nil, err
	}
	c.pins.noteHead(p, reply.Head, reply.AttrHead)
	ns := reply.Neighbors[0]
	c.admit(c.lanePlan(t, 0), v, t, reply.Epoch, replySince(reply.Since, 0, reply.Epoch), ns)
	return ns, nil
}

// NeighborsBatch implements sampling.Source: dst[i] receives the
// out-neighbor list of vs[i]. Duplicate vertices are fetched once, cache
// hits skip the network entirely, and the misses cost at most one RPC per
// owning server.
func (c *Client) NeighborsBatch(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType) error {
	return c.neighborsBatchSpan(dst, vs, t, nil, nil, 0)
}

// cacheGet is the instrumented cache probe of the batch paths: one epoch-
// keyed lookup, attributed to the (edge type, hop) lane — hits and (when the
// cache classifies its misses) epoch misses are counted where they happen,
// so per-lane hit rates come for free with the lookup.
func (c *Client) cacheGet(v graph.ID, t graph.EdgeType, epoch uint64, hs *hopStats) ([]graph.ID, bool) {
	hs.lookups.Inc()
	if c.kinded != nil {
		ns, kind := c.kinded.GetKinded(v, t, 1, epoch)
		switch kind {
		case storage.KindHit:
			hs.cacheHits.Inc()
			return ns, true
		case storage.KindEpochMiss:
			hs.epochMiss.Inc()
		}
		return nil, false
	}
	ns, ok := c.Cache.Get(v, t, 1, epoch)
	if ok {
		hs.cacheHits.Inc()
	}
	return ns, ok
}

// observe folds one reply's epoch bookkeeping: the head feeds the pin
// manager's staleness detection, the attr head feeds attribute-cache
// invalidation, and the span records either the pin's stamp (pinned reads:
// single-valued by construction, so Mixed() stays an invariant) or the
// epoch the shard served.
func (c *Client) observe(part int, span *sampling.EpochSpan, pin *sampling.Pin, epoch, head, attrHead uint64) {
	c.pins.noteHead(part, head, attrHead)
	if span == nil {
		return
	}
	if pin != nil {
		span.Observe(pin.Stamp)
	} else {
		span.Observe(epoch)
	}
}

// DegradedDraws reports how many reads were served from stale cache state
// (or padded) because a shard was unreachable with Degrade set. Safe to
// call concurrently with training; nonzero means embeddings consumed
// degraded data.
func (c *Client) DegradedDraws() int64 { return c.degradedDraws.Load() }

// MaxObservedHead reports the newest head epoch the client has observed on
// any shard (every sampling reply carries its shard's head). Trainers use
// it as the staleness clock for epoch-refreshed negative pools.
func (c *Client) MaxObservedHead() uint64 {
	h := uint64(0)
	for part := range c.pins.heads {
		if v := c.pins.heads[part].Load(); v > h {
			h = v
		}
	}
	return h
}

// ObservedHeads appends the newest head epoch the client has observed per
// shard (index = partition). A serving tier's embedding cache uses the
// vector as its staleness clock: entry validity is measured per shard, not
// against the global max.
func (c *Client) ObservedHeads(dst []uint64) []uint64 {
	for part := range c.pins.heads {
		dst = append(dst, c.pins.heads[part].Load())
	}
	return dst
}

// ObservedAttrHeads appends the newest attribute-rewriting epoch observed
// per shard, the attribute analogue of ObservedHeads.
func (c *Client) ObservedAttrHeads(dst []uint64) []uint64 {
	for part := range c.pins.attrHeads {
		dst = append(dst, c.pins.attrHeads[part].Load())
	}
	return dst
}

// ProbeHeads issues one concurrent Stats round purely to refresh the
// observed per-shard head watermarks, returning them (index = partition).
// This is how a serving tier notices out-of-band churn — updates applied by
// other writers — even when its own request stream is fully cache-hot and
// makes no data RPCs. Degraded (down) shards keep their last observed heads.
func (c *Client) ProbeHeads() ([]uint64, []uint64, error) {
	if _, err := c.clusterStats(true); err != nil {
		return nil, nil, err
	}
	return c.ObservedHeads(nil), c.ObservedAttrHeads(nil), nil
}

// degraded reports whether err should be absorbed by stale-serving: the
// client degrades (Degrade set) and the error is a transport-level failure
// (never an application error from a live server).
func (c *Client) degraded(err error) bool {
	return c.Degrade && (IsShardDown(err) || IsTransient(err))
}

// staleList fetches v's hop-1 list from the cache ignoring epoch validity —
// the degraded-read path. ok is false when the cache holds nothing for v.
func (c *Client) staleList(v graph.ID, t graph.EdgeType) ([]graph.ID, bool) {
	if sr, ok := c.Cache.(storage.StaleReader); ok {
		return sr.GetStale(v, t, 1)
	}
	return nil, false
}

// degradeSpan keeps a pinned batch's span single-valued when a shard's
// reply is replaced by stale serving (unpinned reads record nothing: they
// observed no real epoch).
func degradeSpan(span *sampling.EpochSpan, pin *sampling.Pin) {
	if span != nil && pin != nil {
		span.Observe(pin.Stamp)
	}
}

// pinFields returns the request pin fields for an optionally pinned call to
// part.
func pinFields(pin *sampling.Pin, part int) (epoch uint64, pinned bool) {
	if pin == nil {
		return 0, false
	}
	return pin.Epochs[part], true
}

func (c *Client) neighborsBatchSpan(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType, pin *sampling.Pin, span *sampling.EpochSpan, hop int) error {
	if len(dst) != len(vs) {
		return fmt.Errorf("cluster: NeighborsBatch dst length %d, want %d", len(dst), len(vs))
	}
	hs := c.hops.get(t, hop)
	hs.calls.Inc()
	hs.slots.Add(int64(len(vs)))
	start := time.Now()
	defer func() { hs.nanos.Add(int64(time.Since(start))) }()
	// Full-list fetches must hit the network on a miss whatever the lane's
	// strategy, so only the plan's admission choice applies here: a lane
	// marked cold keeps its lists out of a replacing cache.
	lp := c.lanePlan(t, hop)
	// Pass 1: dedup, epoch-keyed cache lookups, sub-batch formation. The
	// lookup epoch is the owning shard's pinned epoch (or observed head),
	// so a stale-generation entry misses instead of being served.
	res := make(map[graph.ID][]graph.ID, len(vs))
	subBatch := make(map[int][]graph.ID) // part -> unique missed vertices
	for _, v := range vs {
		if _, seen := res[v]; seen {
			continue
		}
		p := c.Assign.Part(v)
		if ns, ok := c.cacheGet(v, t, c.cacheEpoch(pin, p), hs); ok {
			res[v] = ns
			continue
		}
		res[v] = nil
		subBatch[p] = append(subBatch[p], v)
	}
	// Pass 2: one request per server, issued as one concurrent scatter
	// round (a hop costs max(RTT), not servers x RTT), stitched back
	// through the dedup map in sorted part order so degraded-path ordering
	// and error selection are reproducible. Admissions carry the serving
	// epoch and each list's install stamp.
	parts := sortedParts(subBatch)
	hs.rpcs.Add(int64(len(parts)))
	replies := make([]NeighborsReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		req := NeighborsRequest{Vertices: subBatch[p], EdgeType: t}
		req.Pin, req.Pinned = pinFields(pin, p)
		return c.timed(MNeighbors, func() error { return c.T.Neighbors(p, req, &replies[i]) })
	})
	for i, p := range parts {
		batch := subBatch[p]
		if err := errs[i]; err != nil {
			if !c.degraded(err) {
				return err
			}
			// Shard down: serve what the cache still holds (stale), empty
			// lists otherwise, and count every list as degraded.
			for _, v := range batch {
				ns, _ := c.staleList(v, t)
				res[v] = ns
				c.degradedDraws.Add(1)
				hs.degraded.Inc()
			}
			degradeSpan(span, pin)
			continue
		}
		reply := &replies[i]
		c.observe(p, span, pin, reply.Epoch, reply.Head, reply.AttrHead)
		for j, v := range batch {
			res[v] = reply.Neighbors[j]
			c.admit(lp, v, t, reply.Epoch, replySince(reply.Since, j, reply.Epoch), reply.Neighbors[j])
		}
	}
	for i, v := range vs {
		dst[i] = res[v]
	}
	return nil
}

// BatchNeighbors fetches out-neighbor lists for a batch of vertices; it is
// NeighborsBatch with allocated results, kept for the multi-hop path.
func (c *Client) BatchNeighbors(vs []graph.ID, t graph.EdgeType) ([][]graph.ID, error) {
	out := make([][]graph.ID, len(vs))
	if err := c.NeighborsBatch(out, vs, t); err != nil {
		return nil, err
	}
	return out, nil
}

// SampleBatch implements sampling.BatchSampler: width neighbor draws per
// vertex of vs, executed where the adjacency lives. Unique vertices with a
// cached hop-1 list valid at the read epoch are drawn client-side (uniform
// only: caches hold no weights); the rest are grouped into one
// SampleNeighbors RPC per owning server, carrying each unique vertex once
// with its multiplicity and batch positions so repeated hubs get
// independent draws without being re-sent. Every draw group derives its
// stream from its batch slot (sampling.SlotRng), so a fixed seed yields
// fixed values no matter which slots hit the cache, how the graph is
// sharded, or when a replacing cache admitted an entry — the property
// behind the pipeline's bit-reproducibility with LRU caches. Low-degree
// uniform vertices come back as full (short) lists, which are drawn
// locally and admitted (with their install stamp), so replacing caches
// warm up under a pure training workload.
//
// That hybrid flow is the default; the active sampling plan (SetPlan,
// internal/plan) can override it per (edge type, hop) lane — skipping
// probe and admission entirely (ServerDraws, for cold lanes) or fetching
// misses as full lists and drawing locally (ClientDraws, for hub-heavy
// reused lanes). Slot-purity makes every strategy return the same values.
func (c *Client) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, byWeight bool, seed uint64) error {
	return c.sampleBatchSpan(dst, vs, t, width, byWeight, seed, nil, nil, 0)
}

func (c *Client) sampleBatchSpan(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, byWeight bool, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan, hop int) error {
	if len(dst) != len(vs)*width {
		return fmt.Errorf("cluster: SampleBatch dst length %d, want %d", len(dst), len(vs)*width)
	}
	hs := c.hops.get(t, hop)
	hs.calls.Inc()
	hs.slots.Add(int64(len(vs)))
	start := time.Now()
	defer func() { hs.nanos.Add(int64(time.Since(start))) }()
	// The lane's plan chooses where uniform draws execute; weighted draws
	// always go server-side (caches hold no weights, and the server's
	// alias-method stream differs from a client-side inverse-CDF draw, so
	// only one executor keeps fixed seeds bit-identical).
	lp := c.lanePlan(t, hop)
	// Dedup in first-appearance order, tracking every occurrence position.
	idx := make(map[graph.ID]int, len(vs))
	var uniq []graph.ID
	var occs [][]int
	for i, v := range vs {
		j, ok := idx[v]
		if !ok {
			j = len(uniq)
			idx[v] = j
			uniq = append(uniq, v)
			occs = append(occs, nil)
		}
		occs[j] = append(occs[j], i)
	}

	subUniq := make(map[int][]int) // part -> indices into uniq
	var parts []int
	probe := !byWeight && lp.Strategy != plan.ServerDraws
	for j, v := range uniq {
		p := c.Assign.Part(v)
		if probe {
			if ns, ok := c.cacheGet(v, t, c.cacheEpoch(pin, p), hs); ok {
				for _, pos := range occs[j] {
					rng := sampling.SlotRng(seed, pos)
					drawInto(dst[pos*width:(pos+1)*width], v, ns, &rng)
				}
				continue
			}
		}
		if _, ok := subUniq[p]; !ok {
			parts = append(parts, p)
		}
		subUniq[p] = append(subUniq[p], j)
	}
	sort.Ints(parts)
	if !byWeight && lp.Strategy == plan.ClientDraws && len(parts) > 0 {
		// ClientDraws lane: fetch the missed lists whole, admit, draw
		// locally — same values, and the lane's hubs stay resident.
		return c.sampleViaLists(dst, t, width, seed, pin, span, hs, lp, uniq, occs, subUniq, parts)
	}

	// Build every sub-request before the scatter: per-part Vertices, Counts
	// and Slots are carved out of three shared backing buffers (each
	// goroutine only reads its own sub-slice), so a round costs three
	// allocations regardless of how many servers it spans.
	totalUniq, totalSlots := 0, 0
	for _, js := range subUniq {
		totalUniq += len(js)
		for _, j := range js {
			totalSlots += len(occs[j])
		}
	}
	vertsBuf := make([]graph.ID, 0, totalUniq)
	countsBuf := make([]int, 0, totalUniq)
	slotsBuf := make([]int32, 0, totalSlots)
	reqs := make([]SampleRequest, len(parts))
	for i, p := range parts {
		js := subUniq[p]
		v0, s0 := len(vertsBuf), len(slotsBuf)
		for _, j := range js {
			vertsBuf = append(vertsBuf, uniq[j])
			countsBuf = append(countsBuf, len(occs[j]))
			for _, pos := range occs[j] {
				slotsBuf = append(slotsBuf, int32(pos))
			}
		}
		reqs[i] = SampleRequest{
			Vertices:  vertsBuf[v0:len(vertsBuf):len(vertsBuf)],
			Counts:    countsBuf[v0:len(countsBuf):len(countsBuf)],
			Slots:     slotsBuf[s0:len(slotsBuf):len(slotsBuf)],
			EdgeType:  t,
			Width:     width,
			ByWeight:  byWeight,
			WantLists: c.cacheAdmits && lp.Admit,
			Seed:      seed,
		}
		reqs[i].Pin, reqs[i].Pinned = pinFields(pin, p)
	}
	hs.rpcs.Add(int64(len(parts)))
	replies := make([]SampleReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		return c.timed(MSampleNeighbors, func() error { return c.T.SampleNeighbors(p, reqs[i], &replies[i]) })
	})
	for i, p := range parts {
		js := subUniq[p]
		if err := errs[i]; err != nil {
			if !c.degraded(err) {
				return err
			}
			// Shard down: draw each slot from the stale cached list via the
			// same slot-pure stream a live reply would have used (empty
			// lists self-pad, matching the server contract). Weighted draws
			// degrade to uniform over the stale list — the cache holds no
			// weights.
			for _, j := range js {
				v := uniq[j]
				ns, _ := c.staleList(v, t)
				for _, pos := range occs[j] {
					rng := sampling.SlotRng(seed, pos)
					drawInto(dst[pos*width:(pos+1)*width], v, ns, &rng)
					c.degradedDraws.Add(1)
					hs.degraded.Inc()
				}
			}
			degradeSpan(span, pin)
			continue
		}
		reply := &replies[i]
		c.observe(p, span, pin, reply.Epoch, reply.Head, reply.AttrHead)
		if len(reply.Lists) != 0 && len(reply.Lists) != len(js) {
			return fmt.Errorf("cluster: server %d returned %d lists for %d vertices", p, len(reply.Lists), len(js))
		}
		want := 0
		for li, j := range js {
			if len(reply.Lists) > 0 && reply.Lists[li] != nil {
				continue
			}
			want += len(occs[j]) * width
		}
		if len(reply.Samples) != want {
			return fmt.Errorf("cluster: server %d returned %d samples, want %d", p, len(reply.Samples), want)
		}
		k := 0
		for li, j := range js {
			v := uniq[j]
			if len(reply.Lists) > 0 && reply.Lists[li] != nil {
				ns := reply.Lists[li]
				c.admit(lp, v, t, reply.Epoch, replySince(reply.Since, li, reply.Epoch), ns)
				for _, pos := range occs[j] {
					rng := sampling.SlotRng(seed, pos)
					drawInto(dst[pos*width:(pos+1)*width], v, ns, &rng)
				}
				continue
			}
			for _, pos := range occs[j] {
				copy(dst[pos*width:(pos+1)*width], reply.Samples[k:k+width])
				k += width
			}
		}
	}
	return nil
}

// drawInto fills dst with uniform draws from ns, padding with v when ns is
// empty (mirroring the server- and graph-side contract).
func drawInto(dst []graph.ID, v graph.ID, ns []graph.ID, rng *sampling.Rng) {
	if len(ns) == 0 {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	for i := range dst {
		dst[i] = ns[rng.Intn(len(ns))]
	}
}

// clusterStats returns the per-server size counters, fetching them on first
// use or when refresh is set. Errors are never cached (a transient shard
// outage must not poison the client), and only a complete fetch is.
func (c *Client) clusterStats(refresh bool) ([]StatsReply, error) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.stats != nil && !refresh {
		return c.stats, nil
	}
	// One concurrent round over every shard: a TRAVERSE split refresh is
	// never serialized behind one slow server.
	stats := make([]StatsReply, c.Assign.P)
	errs := c.scatter(allParts(c.Assign.P), func(i, p int) error {
		return c.timed(MStats, func() error { return c.T.Stats(p, StatsRequest{}, &stats[p]) })
	})
	partial := false
	for p := 0; p < c.Assign.P; p++ {
		if err := errs[p]; err != nil {
			if !c.degraded(err) {
				return nil, err
			}
			// Dead shard: zero mass, and the partial set is never cached so
			// recovery restores its share on the next refresh.
			stats[p] = StatsReply{}
			partial = true
			continue
		}
		// Stats replies carry head stamps, so a stats round doubles as a
		// head probe (noteHead is monotone: a zeroed reply cannot regress).
		c.pins.noteHead(p, stats[p].Head, stats[p].AttrHead)
	}
	if !partial {
		c.stats = stats
	}
	return stats, nil
}

// edgeSplit returns the per-server mass the TRAVERSE batch is split by:
// edge counts for uniform draws, edge-weight sums for weighted ones. For a
// pinned batch the mass comes from the pinned epoch's counters (they rode
// the Lease reply, so this costs no RPC) — the per-server allocation then
// matches the snapshot actually being sampled, not the moving head.
// Unpinned callers use the cached head stats, re-confirmed against live
// servers before concluding the type is empty (dynamic inserts).
func (c *Client) edgeSplit(t graph.EdgeType, byWeight bool, pin *sampling.Pin) ([]float64, float64, error) {
	mass := func(edges []int64, weights []float64) float64 {
		if byWeight {
			if int(t) < len(weights) {
				return weights[t]
			}
			return 0
		}
		if int(t) < len(edges) {
			return float64(edges[t])
		}
		return 0
	}
	if pin != nil {
		if edges, weights := c.pins.statsFor(pin); edges != nil {
			ws := make([]float64, c.Assign.P)
			total := 0.0
			for p := 0; p < c.Assign.P; p++ {
				ws[p] = mass(edges[p], weights[p])
				total += ws[p]
			}
			return ws, total, nil
		}
	}
	tally := func(stats []StatsReply) ([]float64, float64) {
		ws := make([]float64, len(stats))
		total := 0.0
		for p, st := range stats {
			ws[p] = mass(st.EdgesByType, st.WeightByType)
			total += ws[p]
		}
		return ws, total
	}
	stats, err := c.clusterStats(false)
	if err != nil {
		return nil, 0, err
	}
	ws, total := tally(stats)
	if total == 0 {
		// The cached counters may predate dynamic edge insertions; confirm
		// emptiness against the live servers before giving up.
		if stats, err = c.clusterStats(true); err != nil {
			return nil, 0, err
		}
		ws, total = tally(stats)
	}
	return ws, total, nil
}

// SampleEdges draws n edges of type t uniformly over the cluster's global
// edge set: the batch is split across servers proportionally to their local
// type-t edge counts, then each contributing server answers one SampleEdges
// RPC. This is the distributed TRAVERSE sampler.
func (c *Client) SampleEdges(t graph.EdgeType, n int, seed uint64) ([]graph.Edge, error) {
	return c.AppendSampleEdges(nil, t, n, seed, nil, nil)
}

// SampleEdgesWeighted draws n edges of type t proportionally to edge weight
// over the cluster's global edge set: the batch is split across servers by
// their local type-t weight sums (the Stats RPC reports them), then each
// contributing server draws weight-proportionally from its own edge set.
// The composition is exactly the global weighted draw a single machine
// would make.
func (c *Client) SampleEdgesWeighted(t graph.EdgeType, n int, seed uint64) ([]graph.Edge, error) {
	return c.appendSampleEdges(nil, t, n, seed, true, nil, nil)
}

// AppendSampleEdges is SampleEdges into a caller-owned buffer, reading the
// pinned snapshot when pin is non-nil and recording what each contributing
// server's reply observed into span (nil to skip). Batch sources use it to
// stamp MiniBatches with the epochs their TRAVERSE stage saw. Pinned
// batches are split across servers by the pinned epoch's own edge
// counters (carried on the Lease reply), so the allocation matches the
// snapshot being sampled even while the head moves.
func (c *Client) AppendSampleEdges(dst []graph.Edge, t graph.EdgeType, n int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	return c.appendSampleEdges(dst, t, n, seed, false, pin, span)
}

func (c *Client) appendSampleEdges(dst []graph.Edge, t graph.EdgeType, n int, seed uint64, byWeight bool, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	ws, total, err := c.edgeSplit(t, byWeight, pin)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return dst, nil
	}
	rng := sampling.NewRng(seed)
	al := sampling.NewAlias(ws)
	counts := make([]int, len(ws))
	for i := 0; i < n; i++ {
		counts[al.DrawRng(rng)]++
	}
	// Per-part seeds are drawn sequentially in ascending part order BEFORE
	// the scatter, so the draw stream is identical to the sequential path
	// and reply values never depend on request issue order.
	var parts []int
	reqs := make(map[int]EdgesRequest)
	for p, k := range counts {
		if k == 0 {
			continue
		}
		req := EdgesRequest{EdgeType: t, Count: k, ByWeight: byWeight, Seed: rng.Uint64()}
		req.Pin, req.Pinned = pinFields(pin, p)
		parts = append(parts, p)
		reqs[p] = req
	}
	replies := make([]EdgesReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		return c.timed(MSampleEdges, func() error { return c.T.SampleEdges(p, reqs[p], &replies[i]) })
	})
	edges := dst
	for i, p := range parts {
		if err := errs[i]; err != nil {
			if !c.degraded(err) {
				return nil, err
			}
			// Dead shard: its share of the TRAVERSE batch is skipped (the
			// batch shrinks rather than failing); counted so the gap is
			// visible.
			c.degradedDraws.Add(int64(counts[p]))
			degradeSpan(span, pin)
			continue
		}
		reply := &replies[i]
		c.observe(p, span, pin, reply.Epoch, reply.Head, reply.AttrHead)
		for j := range reply.Src {
			edges = append(edges, graph.Edge{Src: reply.Src[j], Dst: reply.Dst[j], Type: t, Weight: reply.Weight[j]})
		}
	}
	return edges, nil
}

// NegativePool merges every server's local destination counts for edge type
// t into one candidate pool; the counts are exactly the global in-degrees.
func (c *Client) NegativePool(t graph.EdgeType) ([]graph.ID, []float64, error) {
	counts := make(map[graph.ID]int64)
	replies := make([]NegPoolReply, c.Assign.P)
	errs := c.scatter(allParts(c.Assign.P), func(i, p int) error {
		return c.timed(MNegativePool, func() error { return c.T.NegativePool(p, NegPoolRequest{EdgeType: t}, &replies[i]) })
	})
	for p := 0; p < c.Assign.P; p++ {
		if err := errs[p]; err != nil {
			if !c.degraded(err) {
				return nil, nil, err
			}
			// Dead shard: the pool is built without its candidates.
			c.degradedDraws.Add(1)
			continue
		}
		for i, v := range replies[p].Vertices {
			counts[v] += replies[p].Counts[i]
		}
	}
	// Deterministic (sorted) order so pools are reproducible across runs.
	cands := make([]graph.ID, 0, len(counts))
	for v := range counts {
		cands = append(cands, v)
	}
	sortIDs(cands)
	ws := make([]float64, len(cands))
	for i, v := range cands {
		ws[i] = float64(counts[v])
	}
	return cands, ws, nil
}

// Attrs fetches attribute vectors for a batch of vertices with per-server
// sub-batching and duplicate elimination, at the head epoch.
func (c *Client) Attrs(vs []graph.ID) ([][]float64, error) {
	return c.AttrsAt(vs, nil)
}

// AttrsAt is Attrs reading the pinned snapshot when pin is non-nil.
func (c *Client) AttrsAt(vs []graph.ID, pin *sampling.Pin) ([][]float64, error) {
	return c.attrsObserve(vs, pin, nil)
}

// attrsObserve is the attrs fetch core: note (nil to skip) receives each
// contributing server's partition and attribute epoch, which AttrCache uses
// for epoch-based invalidation.
func (c *Client) attrsObserve(vs []graph.ID, pin *sampling.Pin, note func(part int, attrEpoch uint64)) ([][]float64, error) {
	out := make([][]float64, len(vs))
	res := make(map[graph.ID][]float64, len(vs))
	subBatch := make(map[int][]graph.ID)
	for _, v := range vs {
		if _, seen := res[v]; seen {
			continue
		}
		res[v] = nil
		p := c.Assign.Part(v)
		subBatch[p] = append(subBatch[p], v)
	}
	parts := sortedParts(subBatch)
	replies := make([]AttrsReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		req := AttrsRequest{Vertices: subBatch[p]}
		req.Pin, req.Pinned = pinFields(pin, p)
		return c.timed(MAttrs, func() error { return c.T.Attrs(p, req, &replies[i]) })
	})
	for i, p := range parts {
		batch := subBatch[p]
		if err := errs[i]; err != nil {
			if !c.degraded(err) {
				return nil, err
			}
			// Dead shard: nil rows; feature layers above fill zeros.
			c.degradedDraws.Add(int64(len(batch)))
			continue
		}
		reply := &replies[i]
		c.observe(p, nil, pin, reply.Epoch, reply.Head, reply.AttrHead)
		if note != nil {
			note(p, reply.AttrEpoch)
		}
		for j, v := range batch {
			res[v] = reply.Attrs[j]
		}
	}
	for i, v := range vs {
		out[i] = res[v]
	}
	return out, nil
}

// SinceOf fetches, for each vertex, the install stamps of its current
// type-t adjacency list and attribute row, plus the epoch those stamps were
// read at on the vertex's owning shard: adj[i] (attr[i]) is the epoch vs[i]'s
// list (row) was installed at, 0 meaning it predates every update, and
// upto[i] is the serving epoch of the reply that proved it. Together they
// certify "vs[i] is unchanged over [max(adj[i],attr[i]), upto[i]]" — the
// revalidation proof an embedding cache needs to extend an entry's validity
// interval without recomputing the embedding. One concurrent scatter round
// (Neighbors + Attrs per owning shard); errors surface, never degrade — a
// proof built on stale data would defeat its purpose.
func (c *Client) SinceOf(vs []graph.ID, t graph.EdgeType) (adj, attr, upto []uint64, err error) {
	subBatch := make(map[int][]graph.ID)
	idx := make(map[graph.ID]int, len(vs))
	for i, v := range vs {
		if _, seen := idx[v]; !seen {
			idx[v] = i
			p := c.Assign.Part(v)
			subBatch[p] = append(subBatch[p], v)
		}
	}
	parts := sortedParts(subBatch)
	nReplies := make([]NeighborsReply, len(parts))
	aReplies := make([]AttrsReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		if e := c.timed(MNeighbors, func() error {
			return c.T.Neighbors(p, NeighborsRequest{Vertices: subBatch[p], EdgeType: t}, &nReplies[i])
		}); e != nil {
			return e
		}
		return c.timed(MAttrs, func() error {
			return c.T.Attrs(p, AttrsRequest{Vertices: subBatch[p]}, &aReplies[i])
		})
	})
	adj = make([]uint64, len(vs))
	attr = make([]uint64, len(vs))
	upto = make([]uint64, len(vs))
	for i, p := range parts {
		if errs[i] != nil {
			return nil, nil, nil, errs[i]
		}
		nr, ar := &nReplies[i], &aReplies[i]
		c.observe(p, nil, nil, nr.Epoch, nr.Head, nr.AttrHead)
		c.observe(p, nil, nil, ar.Epoch, ar.Head, ar.AttrHead)
		served := min(nr.Epoch, ar.Epoch)
		for j, v := range subBatch[p] {
			k := idx[v]
			adj[k] = replySince(nr.Since, j, nr.Epoch)
			attr[k] = replySince(ar.Since, j, ar.Epoch)
			upto[k] = served
		}
	}
	// Duplicate vertices copy their first occurrence's stamps.
	for i, v := range vs {
		if k := idx[v]; k != i {
			adj[i], attr[i], upto[i] = adj[k], attr[k], upto[k]
		}
	}
	return adj, attr, upto, nil
}

// MultiHop expands a seed set hop by hop, returning the frontier at each
// depth 1..k. Cached multi-hop neighborhoods (importance cache) are used
// when available; otherwise frontiers are fetched with batched requests.
func (c *Client) MultiHop(v graph.ID, t graph.EdgeType, k int) ([][]graph.ID, error) {
	frontiers := make([][]graph.ID, k)
	// Fast path: the whole 1..k expansion is cached and valid at the
	// NEWEST head observed on ANY shard — a multi-hop frontier can cross
	// shard boundaries, so churn anywhere must invalidate it, and a hop-1
	// reply cannot re-validate a whole frontier.
	epoch := uint64(0)
	for part := range c.pins.heads {
		if h := c.pins.heads[part].Load(); h > epoch {
			epoch = h
		}
	}
	allCached := true
	for h := 1; h <= k; h++ {
		if ns, ok := c.Cache.Get(v, t, h, epoch); ok {
			frontiers[h-1] = ns
		} else {
			allCached = false
			break
		}
	}
	if allCached {
		return frontiers, nil
	}

	frontier := []graph.ID{v}
	seen := map[graph.ID]struct{}{v: {}}
	for h := 1; h <= k; h++ {
		lists, err := c.BatchNeighbors(frontier, t)
		if err != nil {
			return nil, err
		}
		var next []graph.ID
		for _, ns := range lists {
			for _, u := range ns {
				if _, ok := seen[u]; ok {
					continue
				}
				seen[u] = struct{}{}
				next = append(next, u)
			}
		}
		frontiers[h-1] = next
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return frontiers, nil
}

// epochView is a single-consumer view of a shared Client that records the
// update epochs stamped on the replies it triggers. Pipeline workers each
// hold one, so a MiniBatch's epoch span costs no synchronization. With a
// pin set, every request through the view reads the pinned snapshot and
// the span records the pin's stamp.
type epochView struct {
	c    *Client
	pin  *sampling.Pin
	span sampling.EpochSpan
	hop  int // current hop tag (sampling.HopTagged); 0 = unattributed
}

// EpochView implements sampling.EpochedSource.
func (c *Client) EpochView() sampling.EpochView { return &epochView{c: c} }

// NeighborsBatch implements sampling.Source.
func (v *epochView) NeighborsBatch(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType) error {
	return v.c.neighborsBatchSpan(dst, vs, t, v.pin, &v.span, v.hop)
}

// SampleBatch implements sampling.BatchSampler, preserving the server-side
// fixed-width draw path through the view.
func (v *epochView) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, byWeight bool, seed uint64) error {
	return v.c.sampleBatchSpan(dst, vs, t, width, byWeight, seed, v.pin, &v.span, v.hop)
}

// SetHop implements sampling.HopTagged: the NEIGHBORHOOD sampler tags the
// view with the 1-based hop it is expanding, and the client's per-(edge
// type, hop) lanes attribute work to it. Views are single-consumer, so the
// tag needs no synchronization.
func (v *epochView) SetHop(h int) { v.hop = h }

// Span implements sampling.EpochView.
func (v *epochView) Span() sampling.EpochSpan { return v.span }

// ResetSpan implements sampling.EpochView.
func (v *epochView) ResetSpan() { v.span.Reset() }

// SetPin implements sampling.EpochView.
func (v *epochView) SetPin(p *sampling.Pin) { v.pin = p }

// sortIDs sorts vertex IDs ascending.
func sortIDs(ids []graph.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
