package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// Client is a worker's view of the distributed graph: it implements the
// batch-first sampling.Source seam, and its sampling.PinSource capability,
// over live graph servers. Every hop of a mini-batch is served by
// deduplicating hub vertices (power-law batches repeat the same hot
// vertices), answering what it can from the pluggable NeighborCache
// (Section 3.2), and stitching the cache misses into one sub-batch per
// owning server exactly as Section 3.3 describes ("we first partition the vertices into sub-batches, and the
// context of each sub-batch will be stitched together after being
// returned"). A hop has one kind, the fixed-width draw (SampleBatch,
// hop.go): the sampling runs on the server (SampleNeighbors RPC), so hub
// adjacency lists never cross the network, and only short lists come back
// whole, for a replacing cache to admit.
//
// A Client is safe for concurrent use as long as its cache is (the static
// caches and the locked LRU all are).
type Client struct {
	Assign *partition.Assignment
	T      Transport
	Cache  storage.NeighborCache

	// pins manages the shared, reference-counted epoch pin (see pin.go);
	// Client implements sampling.PinSource with it.
	pins *pinManager

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
	return &Client{Assign: a, T: t, Cache: cache, pins: newPinManager(a.P)}
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

// ProbeHeads issues one concurrent Stats round purely to refresh the
// observed per-shard head watermarks, returning them (index = partition).
// This is how a serving tier notices out-of-band churn — updates applied by
// other writers — even when its own request stream is fully cache-hot and
// makes no data RPCs.
func (c *Client) ProbeHeads() ([]uint64, error) {
	if _, err := c.clusterStats(true); err != nil {
		return nil, err
	}
	return c.ObservedHeads(nil), nil
}

// pinFields returns the request pin fields for an optionally pinned call to
// part.
func pinFields(pin *sampling.Pin, part int) (epoch uint64, pinned bool) {
	if pin == nil {
		return 0, false
	}
	return pin.Epochs[part], true
}

// SampleBatch implements sampling.Source: width uniform neighbor draws per
// vertex of vs, executed where the adjacency lives. Unique vertices with a
// cached list valid at the read epoch are drawn client-side; the rest
// are grouped into one SampleNeighbors RPC per owning server, carrying each
// unique vertex once. Every vertex's group is drawn once by
// sampling.DrawVertex from (seed, vertex) and copied to each of its batch
// slots, so a fixed seed yields fixed values no matter which vertices hit
// the cache, how the graph is sharded, when a replacing cache admitted an
// entry, or what else shares the batch — the property behind the
// pipeline's bit-reproducibility with LRU caches. Low-degree
// vertices come back as full (short) lists, which are drawn locally and
// admitted (with their install stamp), so replacing caches warm up under a
// pure training workload.
func (c *Client) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64) error {
	return c.sampleBatchSpan(dst, vs, t, width, seed, nil, nil, 0)
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
	for p := range stats {
		if errs[p] != nil {
			return nil, errs[p]
		}
		// Stats replies carry head stamps, so a stats round doubles as a
		// head probe.
		c.pins.noteHead(p, stats[p].Head, stats[p].AttrHead)
	}
	c.stats = stats
	return stats, nil
}

// edgeSplit returns the per-server mass the TRAVERSE batch is split by:
// the servers' type-t edge counts. For a pinned batch the mass comes from
// the pinned epoch's counters (they rode the Lease reply, so this costs no
// RPC) — the per-server allocation then matches the snapshot actually
// being sampled, not the moving head.
// Unpinned callers use the cached head stats, re-confirmed against live
// servers before concluding the type is empty (dynamic inserts).
func (c *Client) edgeSplit(t graph.EdgeType, pin *sampling.Pin) ([]float64, float64, error) {
	mass := func(edges []int64) float64 {
		if int(t) < len(edges) {
			return float64(edges[t])
		}
		return 0
	}
	if pin != nil {
		if edges := c.pins.statsFor(pin); edges != nil {
			ws := make([]float64, c.Assign.P)
			total := 0.0
			for p := 0; p < c.Assign.P; p++ {
				ws[p] = mass(edges[p])
				total += ws[p]
			}
			return ws, total, nil
		}
	}
	tally := func(stats []StatsReply) ([]float64, float64) {
		ws := make([]float64, len(stats))
		total := 0.0
		for p, st := range stats {
			ws[p] = mass(st.EdgesByType)
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
// RPC. This is the distributed TRAVERSE sampler. Shards store no edge
// weights, so every returned edge has a zero Weight.
func (c *Client) SampleEdges(t graph.EdgeType, n int, seed uint64) ([]graph.Edge, error) {
	return c.AppendSampleEdges(nil, t, n, seed, nil, nil)
}

// AppendSampleEdges is SampleEdges into a caller-owned buffer, reading the
// pinned snapshot when pin is non-nil and recording what each contributing
// server's reply observed into span (nil to skip). Batch sources use it to
// stamp MiniBatches with the epochs their TRAVERSE stage saw. Pinned
// batches are split across servers by the pinned epoch's own edge
// counters (carried on the Lease reply), so the allocation matches the
// snapshot being sampled even while the head moves.
func (c *Client) AppendSampleEdges(dst []graph.Edge, t graph.EdgeType, n int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	ws, total, err := c.edgeSplit(t, pin)
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
		req := EdgesRequest{EdgeType: t, Count: k, Seed: rng.Uint64()}
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
		if errs[i] != nil {
			return nil, errs[i]
		}
		reply := &replies[i]
		c.observe(p, span, pin, reply.Epoch, reply.Head, reply.AttrHead)
		if len(reply.Dst) != len(reply.Src) {
			return nil, fmt.Errorf("cluster: server %d returned %d sources and %d destinations", p, len(reply.Src), len(reply.Dst))
		}
		for j := range reply.Src {
			edges = append(edges, graph.Edge{Src: reply.Src[j], Dst: reply.Dst[j], Type: t})
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
		if errs[p] != nil {
			return nil, nil, errs[p]
		}
		if len(replies[p].Counts) != len(replies[p].Vertices) {
			return nil, nil, rowsError(p, "counts", len(replies[p].Counts), len(replies[p].Vertices))
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
// contributing server's partition, sub-batch and reply, whose attribute
// epoch and per-row install epochs AttrCache uses for invalidation.
//
// The (ID, position) pairs of vs are sorted by owning part, then ID, so
// each part's distinct IDs are requested once, in ascending order, and
// every position of a vertex takes its one row in a walk over the pairs.
func (c *Client) attrsObserve(vs []graph.ID, pin *sampling.Pin, note func(part int, batch []graph.ID, reply *AttrsReply)) ([][]float64, error) {
	pairs := c.sortByPartID(vs)
	var parts []int
	batch := make([][]graph.ID, c.Assign.P) // part p's distinct IDs, ascending
	uniq := make([]graph.ID, 0, len(vs))
	for k, e := range pairs {
		if k > 0 && e.v == pairs[k-1].v {
			continue
		}
		p := c.Assign.Part(e.v)
		if len(parts) == 0 || parts[len(parts)-1] != p {
			parts = append(parts, p)
		}
		uniq = append(uniq, e.v) // a part's IDs are contiguous in uniq
		batch[p] = uniq[len(uniq)-len(batch[p])-1 : len(uniq) : len(uniq)]
	}
	replies := make([]AttrsReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		req := AttrsRequest{Vertices: batch[p]}
		req.Pin, req.Pinned = pinFields(pin, p)
		return c.timed(MAttrs, func() error { return c.T.Attrs(p, req, &replies[i]) })
	})
	rows := make([][]float64, 0, len(uniq)) // aligned with uniq
	for i, p := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		reply := &replies[i]
		c.observe(p, nil, pin, reply.Epoch, reply.Head, reply.AttrHead)
		if n := reply.Attrs.Len(); n != len(batch[p]) {
			return nil, rowsError(p, "attribute rows", n, len(batch[p]))
		}
		if len(reply.Since) < len(batch[p]) {
			return nil, rowsError(p, "row install stamps", len(reply.Since), len(batch[p]))
		}
		if note != nil {
			note(p, batch[p], reply)
		}
		rows = reply.Attrs.AppendRows(rows)
	}
	out := make([][]float64, len(vs))
	j := -1
	for k, e := range pairs {
		if k == 0 || e.v != pairs[k-1].v {
			j++
		}
		out[e.pos] = rows[j]
	}
	return out, nil
}

// idPos is a vertex ID and its position in a batch.
type idPos struct {
	v   graph.ID
	pos int
}

// sortByPartID returns vs's (ID, position) pairs sorted by owning part,
// then ID, then position: a stable LSD radix sort, a byte of the ID per
// pass, then a pass by part.
func (c *Client) sortByPartID(vs []graph.ID) []idPos {
	pairs, tmp := make([]idPos, len(vs)), make([]idPos, len(vs))
	var bits uint64
	for i, v := range vs {
		pairs[i] = idPos{v, i}
		bits |= uint64(v)
	}
	start := make([]int, max(256, c.Assign.P)+1)
	pass := func(buckets int, key func(idPos) int) {
		start := start[:buckets+1]
		clear(start)
		for _, e := range pairs {
			start[key(e)+1]++
		}
		for d := range buckets {
			start[d+1] += start[d]
		}
		for _, e := range pairs {
			k := key(e)
			tmp[start[k]] = e
			start[k]++
		}
		pairs, tmp = tmp, pairs
	}
	for shift := 0; shift < 64 && bits>>shift != 0; shift += 8 {
		pass(256, func(e idPos) int { return int(uint64(e.v) >> shift & 0xff) })
	}
	pass(c.Assign.P, func(e idPos) int { return c.Assign.Part(e.v) })
	return pairs
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
	hop  int // current hop tag (SetHop); 0 = unattributed
}

// EpochView implements sampling.PinSource.
func (c *Client) EpochView() sampling.EpochView { return &epochView{c: c} }

// SampleBatch implements sampling.Source through the view: the client's
// server-side fixed-width draw path, at the view's pin and hop tag.
func (v *epochView) SampleBatch(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64) error {
	return v.c.sampleBatchSpan(dst, vs, t, width, seed, v.pin, &v.span, v.hop)
}

// SetHop implements sampling.EpochView: the NEIGHBORHOOD sampler tags the
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
