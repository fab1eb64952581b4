package version

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// View is a read handle on one epoch of a Store: the base snapshot that
// epoch pairs with plus its (possibly nil) overlay. It is a value (no
// allocation to create) and reads lock-free: bases and installed overlays
// are immutable, so a View resolved by At stays consistent forever — across
// concurrent Appends, ring evictions, and even Compact swapping the store's
// current base. Views are safe for concurrent use.
type View struct {
	s     *Store
	b     *baseState
	epoch uint64
	ov    *overlay
}

// Epoch reports which epoch the view reads.
func (v View) Epoch() uint64 { return v.epoch }

// AttrEpoch reports the most recent epoch <= the view's that rewrote any
// attribute row (0 when attributes are still the base's). Attribute caches
// invalidate when it advances.
func (v View) AttrEpoch() uint64 {
	if v.ov == nil {
		return 0
	}
	return v.ov.attrEpoch
}

// Neighbors returns x's out-neighbors and weights under edge type t at the
// view's epoch. The slices alias immutable storage (base CSR or an overlay
// entry) and must be treated as read-only. ok is false when x is not local.
func (v View) Neighbors(x graph.ID, t graph.EdgeType) (ns []graph.ID, ws []float64, ok bool) {
	slot := v.b.slot(x)
	if slot < 0 {
		return nil, nil, false
	}
	if v.ov != nil {
		if l, touched := v.ov.adj[akey{x, t}]; touched {
			return l.nbr, l.wts, true
		}
	}
	c := &v.b.csr[t]
	lo, hi := c.offs[slot], c.offs[slot+1]
	return c.nbr[lo:hi], c.wts[lo:hi], true
}

// ChangedAt reports the epoch at which x's type-t adjacency, as served at
// this view, was installed: the overlay entry's stamp for touched vertices,
// the base's fold stamp for vertices a compaction absorbed, and 0 for lists
// that predate every update. Serving layers stamp replies with it (the
// Since field) so a cache entry's claimed validity interval [since, fetch
// epoch] never spans an update.
func (v View) ChangedAt(x graph.ID, t graph.EdgeType) uint64 {
	if v.ov != nil {
		if l, touched := v.ov.adj[akey{x, t}]; touched {
			return l.epoch
		}
	}
	return v.b.since[akey{x, t}]
}

// AttrChangedAt reports the epoch at which x's attribute row, as served at
// this view, was installed: the overlay row's stamp for rewritten rows, the
// base's fold stamp for rows a compaction absorbed, and 0 for rows that
// predate every update. The attribute analogue of ChangedAt — serving
// layers stamp attr replies with it so an embedding cache's validity
// interval covers feature changes too, not just adjacency.
func (v View) AttrChangedAt(x graph.ID) uint64 {
	if v.ov != nil {
		if a, ok := v.ov.attrs[x]; ok {
			return a.epoch
		}
	}
	return v.b.attrSince[x]
}

// Touched reports whether x's type-t adjacency at this view differs from
// its base (i.e. was rewritten by some epoch the base does not cover).
// Untouched vertices may be served by base-built indexes.
func (v View) Touched(x graph.ID, t graph.EdgeType) bool {
	if v.ov == nil {
		return false
	}
	_, touched := v.ov.adj[akey{x, t}]
	return touched
}

// Attr returns x's attribute row at the view's epoch.
func (v View) Attr(x graph.ID) ([]float64, bool) {
	if v.ov != nil {
		if a, ok := v.ov.attrs[x]; ok {
			return a.row, true
		}
	}
	a, ok := v.b.attrs[x]
	return a, ok
}

// EdgeCount reports the number of local type-t edges at the view's epoch.
func (v View) EdgeCount(t graph.EdgeType) int64 {
	if v.ov != nil {
		return v.ov.edgeCount[t]
	}
	return v.b.edges[t]
}

// EdgeCounts appends the per-type local edge totals at the view's epoch.
func (v View) EdgeCounts(dst []int64) []int64 {
	for t := 0; t < v.s.numTypes; t++ {
		dst = append(dst, v.EdgeCount(graph.EdgeType(t)))
	}
	return dst
}

// edgeSampler draws local edges uniformly at one overlay's epoch by mixing
// two regions: the touched vertices' overlay lists and the untouched
// remainder of the base edge set (rejection draws through the immutable
// base degree alias). It is built lazily once per (overlay, edge type)
// against the overlay's own base; immutable afterwards.
type edgeSampler struct {
	b          *baseState
	touched    []graph.ID      // overlay vertices with current degree > 0
	touchedAl  *sampling.Alias // over touched, weighted by overlay degree
	overlaySum int64           // total overlay-region edges
	baseRem    int64           // base edges on untouched vertices
	isTouched  map[int32]bool  // base slots superseded by the overlay
}

func (ov *overlay) sampler(t graph.EdgeType) *edgeSampler {
	ov.smu.Lock()
	defer ov.smu.Unlock()
	if es := ov.samplers[t]; es != nil {
		return es
	}
	b := ov.base
	es := &edgeSampler{b: b, isTouched: make(map[int32]bool)}
	var ws []float64
	baseTouchedDeg := int64(0)
	c := &b.csr[t]
	for k, l := range ov.adj {
		if k.t != t {
			continue
		}
		slot := b.slot(k.v)
		es.isTouched[int32(slot)] = true
		baseTouchedDeg += c.offs[slot+1] - c.offs[slot]
		if len(l.nbr) > 0 {
			es.touched = append(es.touched, k.v)
			ws = append(ws, float64(len(l.nbr)))
			es.overlaySum += int64(len(l.nbr))
		}
	}
	// Deterministic touched order for reproducible draws at a fixed seed.
	sortTouched(es.touched, ws)
	es.touchedAl = sampling.NewAlias(ws)
	es.baseRem = b.edges[t] - baseTouchedDeg
	ov.samplers[t] = es
	return es
}

// sortTouched co-sorts the touched vertices (and their weights) ascending.
// The touched set is cumulative and can grow large under a long update
// stream, so this must stay O(n log n).
func sortTouched(vs []graph.ID, ws []float64) {
	sort.Sort(&touchedSorter{vs: vs, ws: ws})
}

type touchedSorter struct {
	vs []graph.ID
	ws []float64
}

func (t *touchedSorter) Len() int           { return len(t.vs) }
func (t *touchedSorter) Less(i, j int) bool { return t.vs[i] < t.vs[j] }
func (t *touchedSorter) Swap(i, j int) {
	t.vs[i], t.vs[j] = t.vs[j], t.vs[i]
	t.ws[i], t.ws[j] = t.ws[j], t.ws[i]
}

// SampleEdge draws one type-t edge uniformly over the view's local edge
// set. ok is false when the view has no type-t edges. For views whose
// overlay holds no type-t entries the draw consumes exactly the random
// stream of a base-epoch draw, so updates confined to other edge types do
// not perturb a fixed-seed TRAVERSE sequence.
func (v View) SampleEdge(t graph.EdgeType, rng *sampling.Rng) (src, dst graph.ID, w float64, ok bool) {
	var es *edgeSampler
	if v.ov != nil {
		es = v.ov.sampler(t)
		if es.overlaySum == 0 && len(es.isTouched) == 0 {
			es = nil // overlay untouched for t: identical to a base draw
		}
	}
	if es == nil {
		return v.drawBaseEdge(v.b, t, rng, nil)
	}
	total := es.overlaySum + es.baseRem
	if total <= 0 {
		return 0, 0, 0, false
	}
	if es.overlaySum > 0 && int64(rng.Float64()*float64(total)) < es.overlaySum {
		x := es.touched[es.touchedAl.DrawRng(rng)]
		ns, ws, _ := v.Neighbors(x, t)
		i := rng.Intn(len(ns))
		return x, ns[i], ws[i], true
	}
	return v.drawBaseEdge(es.b, t, rng, es.isTouched)
}

// drawBaseEdge draws uniformly over b's base edge set, skipping slots in
// skip (whose base edges are superseded by an overlay). Rejection is
// bounded; after that a deterministic linear fallback scans for the first
// eligible slot, trading uniformity for termination in the pathological
// case where overlays supersede nearly all base mass.
func (v View) drawBaseEdge(b *baseState, t graph.EdgeType, rng *sampling.Rng, skip map[int32]bool) (src, dst graph.ID, w float64, ok bool) {
	d := b.degreeTable(t)
	al, pool := d.al, d.pool
	if al.Len() == 0 {
		return 0, 0, 0, false
	}
	c := &b.csr[t]
	for tries := 0; tries < 64; tries++ {
		slot := pool[al.DrawRng(rng)]
		if skip != nil && skip[slot] {
			continue
		}
		lo, hi := c.offs[slot], c.offs[slot+1]
		i := lo + int64(rng.Intn(int(hi-lo)))
		return b.local[slot], c.nbr[i], c.wts[i], true
	}
	for _, slot := range pool {
		if skip != nil && skip[slot] {
			continue
		}
		lo, hi := c.offs[slot], c.offs[slot+1]
		i := lo + int64(rng.Intn(int(hi-lo)))
		return b.local[slot], c.nbr[i], c.wts[i], true
	}
	return 0, 0, 0, false
}
