package cluster

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// hop is one hop of a mini-batch in flight: the sampling operator behind
// both NeighborsBatch (a list hop: dst[i] receives vs[i]'s full list) and
// SampleBatch (a draw hop: width vertex-keyed draws per batch slot). Its
// common steps each live here once:
//
//   - dedup: unique vertices in first-appearance order, an epoch-keyed
//     cache probe per unique vertex (counted in the lane's counters), and
//     the misses grouped by owning part in ascending order;
//   - resolve: one concurrent scatter round, per-part reply validation and
//     admission (Observe) of every full list a reply carries;
//   - expand: every later occurrence of a vertex copies its first one.
//
// The two kinds differ only in the per-part request their caller builds
// (Neighbors vs SampleNeighbors) and in serve, which fills the caller's
// buffer from one list.
type hop struct {
	c    *Client
	t    graph.EdgeType
	pin  *sampling.Pin
	span *sampling.EpochSpan
	hs   *hopStats
	t0   time.Time

	// Output: a list hop fills lists (one per batch slot, so non-nil once
	// there is a slot); a draw hop leaves lists nil and fills draws, width
	// per slot, each vertex's group drawn once by DrawVertex(seed).
	lists [][]graph.ID
	draws []graph.ID
	width int
	seed  uint64

	uniq  []graph.ID // unique vertices, first-appearance order
	first []int      // batch slot of uniq[j]'s first occurrence
	of    []int      // per batch slot: its index into uniq
	miss  [][]int    // per part: indices into uniq of its cache misses
	parts []int      // parts with misses, ascending
}

// startHop opens a hop over n batch slots on the (t, hopN) lane.
func (c *Client) startHop(t graph.EdgeType, pin *sampling.Pin, span *sampling.EpochSpan, hopN, n int) *hop {
	hs := c.hops.get(t, hopN)
	hs.calls.Inc()
	hs.slots.Add(int64(n))
	return &hop{c: c, t: t, pin: pin, span: span, hs: hs, t0: time.Now()}
}

// done charges the hop's wall clock to its lane.
func (h *hop) done() { h.hs.nanos.Add(int64(time.Since(h.t0))) }

// group returns the draw group of uniq[j]'s first occurrence.
func (h *hop) group(j int) []graph.ID {
	pos := h.first[j]
	return h.draws[pos*h.width : (pos+1)*h.width]
}

// serve fills uniq[j]'s first slot from the list ns (a cache hit or a
// reply's full list).
func (h *hop) serve(j int, ns []graph.ID) {
	if h.lists != nil {
		h.lists[h.first[j]] = ns
		return
	}
	sampling.DrawVertex(h.group(j), h.uniq[j], ns, h.seed)
}

// expand copies each vertex's first slot into its later occurrences.
func (h *hop) expand() {
	for pos, j := range h.of {
		f := h.first[j]
		if f == pos {
			continue
		}
		if h.lists != nil {
			h.lists[pos] = h.lists[f]
		} else {
			copy(h.draws[pos*h.width:(pos+1)*h.width], h.group(j))
		}
	}
}

// dedup indexes vs by unique vertex, serves what the cache holds, and
// groups the rest by owning part. The probe is keyed by the owning shard's
// pinned epoch (or observed head), so a stale-generation entry misses
// instead of being served.
func (h *hop) dedup(vs []graph.ID) {
	c := h.c
	idx := make(map[graph.ID]int, len(vs))
	h.of = make([]int, len(vs))
	for i, v := range vs {
		j, ok := idx[v]
		if !ok {
			j = len(h.uniq)
			idx[v] = j
			h.uniq = append(h.uniq, v)
			h.first = append(h.first, i)
		}
		h.of[i] = j
	}

	h.miss = make([][]int, c.Assign.P)
	for j, v := range h.uniq {
		p := c.Assign.Part(v)
		if ns, ok := h.probe(v, c.cacheEpoch(h.pin, p)); ok {
			h.serve(j, ns)
			continue
		}
		h.miss[p] = append(h.miss[p], j)
	}
	for p, js := range h.miss {
		if len(js) > 0 {
			h.parts = append(h.parts, p)
		}
	}
}

// probe is the instrumented cache lookup: hits and epoch misses are
// counted on the lane where they happen.
func (h *hop) probe(v graph.ID, epoch uint64) ([]graph.ID, bool) {
	h.hs.lookups.Inc()
	ns, kind := h.c.Cache.Get(v, h.t, 1, epoch)
	switch kind {
	case storage.KindHit:
		h.hs.cacheHits.Inc()
		return ns, true
	case storage.KindEpochMiss:
		h.hs.epochMiss.Inc()
	}
	return nil, false
}

// missVertices returns each part's missed vertices (aligned with parts),
// carved out of one buffer.
func (h *hop) missVertices() [][]graph.ID {
	buf := make([]graph.ID, 0, len(h.uniq))
	out := make([][]graph.ID, len(h.parts))
	for i, p := range h.parts {
		v0 := len(buf)
		for _, j := range h.miss[p] {
			buf = append(buf, h.uniq[j])
		}
		out[i] = buf[v0:len(buf):len(buf)]
	}
	return out
}

// hopReply is the part of a Neighbors or SampleNeighbors reply the hop
// routine reads. lists has one row per miss sent to the part; a draw
// hop's reply may carry no lists, or nil rows, for rows the server drew
// itself into samples (width per row, in row order).
type hopReply struct {
	epoch, head, attrHead uint64
	since                 []uint64
	lists                 [][]graph.ID
	samples               []graph.ID
}

// resolve fetches h's misses — send issues parts[i]'s request into reply
// slot i, one concurrent round — and stitches the replies back in
// ascending part order through read, so admission order and error
// selection are reproducible. It then expands the unique vertices' results
// into every batch slot.
func resolve[R any](h *hop, m Method, send func(i, p int, reply *R) error, read func(*R) hopReply) error {
	c := h.c
	h.hs.rpcs.Add(int64(len(h.parts)))
	replies := make([]R, len(h.parts))
	errs := c.scatter(h.parts, func(i, p int) error {
		return c.timed(m, func() error { return send(i, p, &replies[i]) })
	})
	for i, p := range h.parts {
		if errs[i] != nil {
			return errs[i]
		}
		r := read(&replies[i])
		c.observe(p, h.span, h.pin, r.epoch, r.head, r.attrHead)
		if err := h.fill(p, h.miss[p], r); err != nil {
			return err
		}
	}
	h.expand()
	return nil
}

// fill validates part p's reply to its misses js and serves them from it:
// full lists are admitted with their install stamps and served, drawn rows
// are copied out of samples. A reply that carries lists must stamp every
// row: an admission without its install epoch could claim validity across
// an update.
func (h *hop) fill(p int, js []int, r hopReply) error {
	drawn := h.lists == nil && len(r.lists) == 0
	if !drawn {
		if len(r.lists) != len(js) {
			return rowsError(p, "lists", len(r.lists), len(js))
		}
		if len(r.since) < len(js) {
			return rowsError(p, "install stamps", len(r.since), len(js))
		}
	}
	isList := func(row int) bool { return !drawn && (h.lists != nil || r.lists[row] != nil) }
	want := 0
	for row := range js {
		if !isList(row) {
			want += h.width
		}
	}
	if len(r.samples) != want {
		return fmt.Errorf("cluster: server %d returned %d samples, want %d", p, len(r.samples), want)
	}
	k := 0
	for row, j := range js {
		if isList(row) {
			ns := r.lists[row]
			h.c.Cache.Observe(h.uniq[j], h.t, 1, r.epoch, r.since[row], ns)
			h.serve(j, ns)
			continue
		}
		k += copy(h.group(j), r.samples[k:k+h.width])
	}
	return nil
}

// rowsError reports a reply whose row count disagrees with its request.
func rowsError(part int, what string, got, want int) error {
	return fmt.Errorf("cluster: server %d returned %d %s for %d vertices", part, got, what, want)
}

// NeighborsBatch is the list hop, at the head epoch: dst[i] receives the
// out-neighbor list of vs[i]. Duplicate vertices are fetched once, cache
// hits skip the network entirely, and the misses cost at most one
// Neighbors RPC per owning server.
func (c *Client) NeighborsBatch(dst [][]graph.ID, vs []graph.ID, t graph.EdgeType) error {
	if len(dst) != len(vs) {
		return fmt.Errorf("cluster: NeighborsBatch dst length %d, want %d", len(dst), len(vs))
	}
	h := c.startHop(t, nil, nil, 0, len(vs))
	defer h.done()
	h.lists = dst
	h.dedup(vs)
	verts := h.missVertices()
	return resolve(h, MNeighbors, func(i, p int, reply *NeighborsReply) error {
		return c.T.Neighbors(p, NeighborsRequest{Vertices: verts[i], EdgeType: t}, reply)
	}, func(r *NeighborsReply) hopReply {
		return hopReply{epoch: r.Epoch, head: r.Head, attrHead: r.AttrHead, since: r.Since, lists: r.Neighbors}
	})
}

// sampleBatchSpan is the draw hop: SampleNeighbors RPCs carrying each
// missed vertex once.
func (c *Client) sampleBatchSpan(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan, hopN int) error {
	if len(dst) != len(vs)*width {
		return fmt.Errorf("cluster: SampleBatch dst length %d, want %d", len(dst), len(vs)*width)
	}
	h := c.startHop(t, pin, span, hopN, len(vs))
	defer h.done()
	h.draws, h.width, h.seed = dst, width, seed
	h.dedup(vs)
	verts := h.missVertices()
	wantLists := c.Cache.Admits()
	return resolve(h, MSampleNeighbors, func(i, p int, reply *SampleReply) error {
		req := SampleRequest{Vertices: verts[i], EdgeType: t, Width: width, WantLists: wantLists, Seed: seed}
		req.Pin, req.Pinned = pinFields(pin, p)
		return c.T.SampleNeighbors(p, req, reply)
	}, func(r *SampleReply) hopReply {
		return hopReply{epoch: r.Epoch, head: r.Head, attrHead: r.AttrHead, since: r.Since, lists: r.Lists, samples: r.Samples}
	})
}
