package cluster

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// hop is one draw hop of a mini-batch in flight (SampleBatch): width
// vertex-keyed draws per batch slot, each vertex's group drawn once by
// DrawVertex(seed). Its steps:
//
//   - dedup: unique vertices in first-appearance order, an epoch-keyed
//     cache probe per unique vertex (counted in the lane's counters), and
//     the misses grouped by owning part in ascending order;
//   - resolve: one concurrent round of SampleNeighbors RPCs carrying each
//     missed vertex once, per-part reply validation, and admission
//     (Observe) of every full list a reply carries;
//   - expand: every later occurrence of a vertex copies its first group.
type hop struct {
	c    *Client
	t    graph.EdgeType
	pin  *sampling.Pin
	span *sampling.EpochSpan
	hs   *hopStats
	t0   time.Time

	draws []graph.ID // output, width per batch slot
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

// serve draws uniq[j]'s first group from the list ns (a cache hit or a
// reply's full list).
func (h *hop) serve(j int, ns []graph.ID) {
	sampling.DrawVertex(h.group(j), h.uniq[j], ns, h.seed)
}

// expand copies each vertex's first group into its later occurrences.
func (h *hop) expand() {
	for pos, j := range h.of {
		if h.first[j] != pos {
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
	ns, kind := h.c.Cache.Get(v, h.t, epoch)
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

// resolve fetches h's misses in one concurrent round of SampleNeighbors
// RPCs and stitches the replies back in ascending part order, so admission
// order and error selection are reproducible. It then expands the unique
// vertices' groups into every batch slot.
func (h *hop) resolve() error {
	c := h.c
	verts := h.missVertices()
	wantLists := c.Cache.Admits()
	h.hs.rpcs.Add(int64(len(h.parts)))
	replies := make([]SampleReply, len(h.parts))
	errs := c.scatter(h.parts, func(i, p int) error {
		req := SampleRequest{Vertices: verts[i], EdgeType: h.t, Width: h.width, WantLists: wantLists, Seed: h.seed}
		req.Pin, req.Pinned = pinFields(h.pin, p)
		return c.timed(MSampleNeighbors, func() error { return c.T.SampleNeighbors(p, req, &replies[i]) })
	})
	for i, p := range h.parts {
		if errs[i] != nil {
			return errs[i]
		}
		r := &replies[i]
		c.observe(p, h.span, h.pin, r.Epoch, r.Head, r.AttrHead)
		if err := h.fill(p, h.miss[p], r); err != nil {
			return err
		}
	}
	h.expand()
	return nil
}

// fill validates part p's reply to its misses js and serves them from it:
// drawn rows are copied out of Samples (width per row, in row order), and
// full lists are admitted with their install stamps and drawn here. A reply
// that carries lists has one row per miss (nil for a drawn row) and must
// stamp every row: an admission without its install epoch could claim
// validity across an update.
func (h *hop) fill(p int, js []int, r *SampleReply) error {
	lists := len(r.Lists) > 0
	if lists {
		if len(r.Lists) != len(js) {
			return rowsError(p, "lists", len(r.Lists), len(js))
		}
		if len(r.Since) < len(js) {
			return rowsError(p, "install stamps", len(r.Since), len(js))
		}
	}
	isList := func(row int) bool { return lists && r.Lists[row] != nil }
	want := 0
	for row := range js {
		if !isList(row) {
			want += h.width
		}
	}
	if len(r.Samples) != want {
		return fmt.Errorf("cluster: server %d returned %d samples, want %d", p, len(r.Samples), want)
	}
	k := 0
	for row, j := range js {
		if isList(row) {
			ns := r.Lists[row]
			h.c.Cache.Observe(h.uniq[j], h.t, r.Epoch, r.Since[row], ns)
			h.serve(j, ns)
			continue
		}
		k += copy(h.group(j), r.Samples[k:k+h.width])
	}
	return nil
}

// rowsError reports a reply whose row count disagrees with its request.
func rowsError(part int, what string, got, want int) error {
	return fmt.Errorf("cluster: server %d returned %d %s for %d vertices", part, got, what, want)
}

// sampleBatchSpan is the draw hop behind SampleBatch and the epoch views.
func (c *Client) sampleBatchSpan(dst []graph.ID, vs []graph.ID, t graph.EdgeType, width int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan, hopN int) error {
	if len(dst) != len(vs)*width {
		return fmt.Errorf("cluster: SampleBatch dst length %d, want %d", len(dst), len(vs)*width)
	}
	h := c.startHop(t, pin, span, hopN, len(vs))
	defer h.done()
	h.draws, h.width, h.seed = dst, width, seed
	h.dedup(vs)
	return h.resolve()
}
