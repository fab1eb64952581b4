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

// Neighbors returns x's out-neighbors under edge type t at the view's
// epoch. The slice aliases immutable storage (base CSR or an overlay entry)
// and must be treated as read-only. ok is false when x is not local.
func (v View) Neighbors(x graph.ID, t graph.EdgeType) (ns []graph.ID, ok bool) {
	slot := v.b.slot(x)
	if slot < 0 {
		return nil, false
	}
	if v.ov != nil {
		if l, touched := v.ov.adj[akey{x, t}]; touched {
			return l.nbr, true
		}
	}
	c := &v.b.csr[t]
	lo, hi := c.offs[slot], c.offs[slot+1]
	return c.nbr[lo:hi], true
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

// Attr returns x's attribute row at the view's epoch, bit for bit as it
// was added or last set (a nil row stays nil). The row may alias the store
// and must not be mutated; a row the base holds coded is expanded into a
// new slice. ok is false when x is not local.
func (v View) Attr(x graph.ID) ([]float64, bool) {
	slot := v.b.slot(x)
	if slot < 0 {
		return nil, false
	}
	if v.ov != nil {
		if a, ok := v.ov.attrs[x]; ok {
			return a.row, true
		}
	}
	return v.b.attrs.floats(slot, nil), true
}

// AttrStored is Attr in the form the store holds the row, from one slot
// lookup: codes into AttrTable when the base holds the row coded (non-nil
// unless the row is nil), the row itself otherwise (a row set by an update
// the base has not absorbed, or a row of a base that stores values).
// Neither may be mutated.
func (v View) AttrStored(x graph.ID) (row []float64, codes []byte, ok bool) {
	slot := v.b.slot(x)
	if slot < 0 {
		return nil, nil, false
	}
	if v.ov != nil {
		if a, ok := v.ov.attrs[x]; ok {
			return a.row, nil, true
		}
	}
	row, codes = v.b.attrs.row(slot)
	return row, codes, true
}

// AttrTable returns the distinct float64 bit patterns, in first-appearance
// order by slot, that the base's coded rows index, or nil when the base
// stores its rows as values (they hold more than MaxCodes patterns). It
// must not be mutated.
func (v View) AttrTable() []float64 { return v.b.attrs.table }

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

// rankIndex places one overlay's type-t edges in rank order, (vertex ID,
// list position). Entry j > 0 is the j-th touched vertex by slot, whose
// overlay list starts at rank starts[j]; entry 0 stands for the base edges
// before the first one. starts ends with the edge total, so [starts[j],
// starts[j+1]) covers entry j's list and then the untouched base edges up
// to the next touched vertex, shifted by the touched degree deltas so far.
// Built lazily once per (overlay, edge type); immutable afterwards.
type rankIndex struct {
	starts  []int64
	entries []rankEntry
}

type rankEntry struct {
	slot int // -1 for entry 0
	l    adjList
}

// ranks returns (building on first use) the overlay's type-t rank index.
// It is published through an atomic pointer, so draws take no lock once it
// exists.
func (ov *overlay) ranks(t graph.EdgeType) *rankIndex {
	if ix := ov.rank[t].Load(); ix != nil {
		return ix
	}
	ov.rankMu.Lock()
	defer ov.rankMu.Unlock()
	if ix := ov.rank[t].Load(); ix != nil {
		return ix
	}
	b := ov.base
	c := &b.csr[t]
	es := []rankEntry{{slot: -1}}
	for k, l := range ov.adj {
		if k.t == t {
			es = append(es, rankEntry{slot: b.slot(k.v), l: l})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].slot < es[j].slot })
	ix := &rankIndex{starts: make([]int64, len(es)+1), entries: es}
	shift := int64(0) // overlay minus base degree of the touched vertices so far
	for j, e := range es[1:] {
		ix.starts[j+1] = c.offs[e.slot] + shift
		shift += int64(len(e.l.nbr)) - (c.offs[e.slot+1] - c.offs[e.slot])
	}
	ix.starts[len(es)] = c.offs[len(c.offs)-1] + shift
	ov.rank[t].Store(ix)
	return ix
}

// SampleEdge draws one type-t edge uniformly over the view's local edge
// set: a rank r = rng.Int64n(EdgeCount(t)), and the edge of rank r in
// (vertex ID, list position) order. ok is false when the view has no type-t
// edges. The edge depends only on r and on the adjacency the view serves,
// so a draw is bit-identical across a compaction (which folds overlay lists
// into the base verbatim, in slot order) and across updates confined to
// other edge types.
func (v View) SampleEdge(t graph.EdgeType, rng *sampling.Rng) (src, dst graph.ID, ok bool) {
	n := v.EdgeCount(t)
	if n <= 0 {
		return 0, 0, false
	}
	r := rng.Int64n(n)
	c := &v.b.csr[t]
	if v.ov != nil {
		// Resolve r within its overlay entry, or map it to the base rank of
		// an untouched edge in the gap after it.
		ix := v.ov.ranks(t)
		j := graph.SearchOffsets(ix.starts, r)
		e := &ix.entries[j]
		off := r - ix.starts[j]
		if off < int64(len(e.l.nbr)) {
			return v.b.local[e.slot], e.l.nbr[off], true
		}
		r = c.offs[e.slot+1] + off - int64(len(e.l.nbr))
	}
	return v.b.local[graph.SearchOffsets(c.offs, r)], c.nbr[r], true
}
