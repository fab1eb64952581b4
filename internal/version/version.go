// Package version implements the multi-version adjacency and attribute
// store behind dynamic graph serving: an immutable base snapshot (CSR
// adjacency flattened at Seal time) plus per-epoch delta overlays kept in a
// bounded ring of the last K epochs. It is the snapshot-isolation split an
// HTAP-style graph service needs between its update path and its analytical
// readers: ServeUpdate-style writers append whole delta batches (advancing
// the head epoch), while samplers read through At(epoch) views that never
// observe a torn or in-progress mutation.
//
// Design:
//
//   - Base snapshots are immutable. A baseState freezes the whole shard at
//     one epoch (CSR adjacency, attribute rows, edge totals); the original
//     one is built by Seal at epoch 0 and later ones by Compact. A vertex's
//     base slot is its rank among the sorted local IDs, found in a bitmap
//     rank index, and both the adjacency and the attribute rows are
//     slot-aligned columns, so a base read is array loads and no hashing.
//     The attribute column holds one-byte codes into a table of the base's
//     distinct bit patterns when there are at most MaxCodes of them (the
//     paper's attribute index, §3.2), values otherwise. An overlay
//     is immutable once Append installs it (its lazily built rank indexes
//     aside), and it permanently pairs with the base it was built against,
//     so a View (base pointer + overlay pointer) reads entirely lock-free
//     after the single lock acquisition that resolved it — and it stays
//     valid even if its epoch is later evicted from the ring or the
//     store's current base is swapped by a compaction.
//   - Overlays are cumulative: the overlay of epoch e maps every vertex
//     touched since its base to its full post-update adjacency (and every
//     re-written attribute row to its value), so resolving a read is at
//     most one overlay map probe, then the base read, regardless of how
//     many epochs back the base is. Append clones the head overlay's index
//     maps (cost proportional to the total touched set, not the graph) and
//     installs a new one; removal copies the touched vertex's slices
//     instead of rewriting shared backing arrays in place. Every overlay
//     entry is stamped with the epoch that installed it; the stamps drive
//     both client-side cache validity (the Since field on sampling
//     replies) and compaction's pruning.
//   - Append applies a Delta all-or-nothing: the batch is staged into the
//     candidate overlay and validated as it goes; any error (for example a
//     non-local source vertex) discards the whole overlay, leaves the head
//     epoch unchanged and reports zero applied operations.
//   - The ring retains the last Retain epochs. Older epochs are evicted —
//     unless leased: Lease(epoch)/Release(epoch) reference-count readers
//     that pinned a snapshot, and an epoch with live leases survives any
//     number of Appends. Reads of an evicted epoch fail with ErrEvicted,
//     which IsEvicted recognizes even after an error crosses an RPC
//     boundary (errors cross as strings); clients react by re-pinning the
//     current head and retrying.
//   - Compact bounds memory under an unbounded update stream: it folds the
//     state at the retention floor into a freshly sealed base (CSR rebuilt
//     off-lock from immutable inputs, then atomically swapped in) and
//     rebases the retained overlays by pruning every entry whose stamp the
//     new base already covers, so the cumulative maps stop growing
//     monotonically. Leased epochs below the
//     floor keep their old overlay and old base pointer and stay readable
//     throughout; live Views are untouched. Clients never notice: the head
//     epoch does not move and every retained epoch answers exactly as
//     before.
//   - Every draw is uniform; edge weights are stored, updated, compacted
//     and returned by Neighbors, but no draw reads them. A neighbour draw
//     indexes the vertex's list with the caller's stream. An edge draw
//     (TRAVERSE, SampleEdge) takes the edge at a uniform rank in (vertex
//     ID, list position) order: one binary search over the base CSR
//     offsets, plus one over a per-overlay rank index of the touched
//     vertices. Both draws depend only on the adjacency a view serves, so
//     both are bit-stable across compaction.
package version

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultRetain is the default ring bound: how many update epochs stay
// readable without a lease.
const DefaultRetain = 8

// evictedMarker and futureMarker are the substrings the Is* helpers match
// on; they must appear in every corresponding error, including those
// flattened to strings on the RPC wire.
const (
	evictedMarker = "epoch evicted"
	futureMarker  = "epoch not reached"
)

// ErrEvicted reports a read of an epoch that fell out of the retention ring
// with no lease holding it.
var ErrEvicted = errors.New("version: " + evictedMarker)

// ErrFuture reports a read of an epoch the store has not reached yet — on a
// live cluster typically a pin outliving a server restart (the fresh store
// restarts at epoch 0).
var ErrFuture = errors.New("version: " + futureMarker)

// IsEvicted reports whether err marks an evicted epoch. It matches both the
// in-process sentinel and errors that crossed an RPC boundary as strings.
func IsEvicted(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrEvicted) || strings.Contains(err.Error(), evictedMarker)
}

// IsFuture reports whether err marks an epoch the serving store has not
// reached, RPC-flattened or not.
func IsFuture(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrFuture) || strings.Contains(err.Error(), futureMarker)
}

// IsUnavailable reports whether err means the requested snapshot epoch
// cannot be served at all — evicted from the ring, or never reached (a
// restarted server). Both are recoverable the same way: discard the pin,
// lease the current snapshot, retry.
func IsUnavailable(err error) bool {
	return IsEvicted(err) || IsFuture(err)
}

// EdgeOp is one edge mutation of a Delta.
type EdgeOp struct {
	Src, Dst graph.ID
	Type     graph.EdgeType
	Weight   float64
}

// AttrOp replaces the attribute row of one vertex.
type AttrOp struct {
	V    graph.ID
	Attr []float64
}

// Delta is one atomic update batch: edge insertions, edge removals
// (idempotent: removing an absent edge is a no-op) and attribute rewrites.
type Delta struct {
	Add     []EdgeOp
	Remove  []EdgeOp
	SetAttr []AttrOp
}

// akey addresses one vertex's adjacency under one edge type.
type akey struct {
	v graph.ID
	t graph.EdgeType
}

// adjList is one vertex's overlay adjacency: a full replacement of its
// base list, immutable once installed. epoch stamps the update epoch that
// installed this exact list — the validity boundary cache layers key on and
// compaction prunes by.
type adjList struct {
	nbr   []graph.ID
	wts   []float64
	epoch uint64
}

// attrRow is one vertex's overlay attribute row with its install stamp.
type attrRow struct {
	row   []float64
	epoch uint64
}

// baseCSR is the sealed adjacency of one edge type: slot-aligned offsets
// into flat neighbor/weight arrays.
type baseCSR struct {
	offs []int64
	nbr  []graph.ID
	wts  []float64
}

// baseState freezes the whole shard at one epoch. It is immutable after
// construction; Views and overlays hold baseState pointers, so a compaction
// installing a newer base never disturbs an existing reader.
type baseState struct {
	epoch uint64 // the update epoch whose state this base freezes

	// local is the sorted vertex set, fixed at Seal: a vertex's slot is its
	// rank in it, found by slots, and indexes csr and attrs. Every base
	// generation shares local and slots; a compaction rebuilds attrs only
	// when it folds rows set by updates.
	local []graph.ID
	slots *slotIndex

	csr   []baseCSR
	attrs *attrColumn
	edges []int64 // per-type edge totals at epoch

	// since records, for entries folded out of overlays by compaction, the
	// epoch at which the vertex's current list was installed (absent = the
	// list predates every update). Serving layers report it as the Since
	// stamp on replies, so cache entries never claim validity across an
	// update the base has absorbed. attrSince is the same discipline for
	// attribute rows rewritten by SetAttr and later folded into the base.
	since     map[akey]uint64
	attrSince map[graph.ID]uint64
}

// overlay is the cumulative diff-versus-base at one epoch. All fields
// except the lazily built rank indexes are immutable after Append.
type overlay struct {
	epoch uint64
	base  *baseState // the base this overlay's maps diff against
	adj   map[akey]adjList
	attrs map[graph.ID]attrRow
	// attrEpoch is the most recent epoch <= this one that rewrote any
	// attribute row; attribute caches invalidate on its advance.
	attrEpoch uint64
	// edgeCount is the per-type total of local edges at this epoch
	// (absolute, so it survives rebasing unchanged).
	edgeCount []int64

	rankMu sync.Mutex
	rank   []atomic.Pointer[rankIndex] // per edge type, built lazily
}

// Store is the multi-version store. Build it like a plain server shard:
// AddVertex/AddEdge during loading, then Seal exactly once; afterwards all
// mutation goes through Append (and memory is bounded by Compact).
type Store struct {
	numTypes int
	retain   int

	mu     sync.RWMutex
	sealed bool

	// Pre-Seal building state.
	bAdj  []map[graph.ID][]graph.ID
	bWts  []map[graph.ID][]float64
	bAttr map[graph.ID][]float64

	// cur is the base new Appends and head reads resolve against; zero is
	// the original epoch-0 base, kept only while epoch 0 is readable.
	cur  *baseState
	zero *baseState

	head     uint64
	overlays map[uint64]*overlay
	leases   map[uint64]int

	// compactMu serializes compactions (the expensive rebuild runs outside
	// the store lock; two interleaved rebuilds would waste work).
	compactMu   sync.Mutex
	compactions int64
}

// NewStore creates an empty store for numEdgeTypes edge types with the
// default retention window.
func NewStore(numEdgeTypes int) *Store {
	return NewStoreRetain(numEdgeTypes, DefaultRetain)
}

// NewStoreRetain creates a store retaining the last retain epochs (minimum
// 1: the head is always readable).
func NewStoreRetain(numEdgeTypes, retain int) *Store {
	if retain < 1 {
		retain = 1
	}
	s := &Store{
		numTypes: numEdgeTypes,
		retain:   retain,
		bAdj:     make([]map[graph.ID][]graph.ID, numEdgeTypes),
		bWts:     make([]map[graph.ID][]float64, numEdgeTypes),
		bAttr:    make(map[graph.ID][]float64),
		cur:      &baseState{},
		overlays: make(map[uint64]*overlay),
		leases:   make(map[uint64]int),
	}
	for t := range s.bAdj {
		s.bAdj[t] = make(map[graph.ID][]graph.ID)
		s.bWts[t] = make(map[graph.ID][]float64)
	}
	return s
}

// NumEdgeTypes reports the schema width the store was built for.
func (s *Store) NumEdgeTypes() int { return s.numTypes }

// Retain reports the ring bound K.
func (s *Store) Retain() int { return s.retain }

// AddVertex registers a local vertex with its attribute row. Only legal
// before Seal; post-Seal attribute changes go through Append.
func (s *Store) AddVertex(v graph.ID, attr []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		panic("version: AddVertex after Seal")
	}
	if _, ok := s.bAttr[v]; !ok {
		s.cur.local = append(s.cur.local, v)
	}
	s.bAttr[v] = attr
}

// AddEdge appends an out-edge during loading. Only legal before Seal.
func (s *Store) AddEdge(src, dst graph.ID, t graph.EdgeType, w float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		panic("version: AddEdge after Seal")
	}
	s.bAdj[t][src] = append(s.bAdj[t][src], dst)
	s.bWts[t][src] = append(s.bWts[t][src], w)
}

// Seal freezes the loaded data as the immutable epoch-0 base: local IDs are
// sorted and indexed by rank, adjacency is flattened into per-type CSR
// arrays, attribute rows into one slot-aligned column, and the building maps
// are dropped. Idempotent.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	b := s.cur
	sort.Slice(b.local, func(i, j int) bool { return b.local[i] < b.local[j] })
	b.slots = newSlotIndex(b.local)
	b.attrs = newAttrColumn(len(b.local), func(i int) []float64 { return s.bAttr[b.local[i]] })
	b.csr = make([]baseCSR, s.numTypes)
	b.edges = make([]int64, s.numTypes)
	for t := 0; t < s.numTypes; t++ {
		c := baseCSR{offs: make([]int64, len(b.local)+1)}
		for i, v := range b.local {
			c.offs[i+1] = c.offs[i] + int64(len(s.bAdj[t][v]))
		}
		m := c.offs[len(b.local)]
		c.nbr = make([]graph.ID, 0, m)
		c.wts = make([]float64, 0, m)
		for _, v := range b.local {
			c.nbr = append(c.nbr, s.bAdj[t][v]...)
			c.wts = append(c.wts, s.bWts[t][v]...)
		}
		b.csr[t] = c
		b.edges[t] = m
	}
	s.bAdj, s.bWts, s.bAttr = nil, nil, nil
	s.zero = b
	s.sealed = true
}

// LocalVertices returns the sorted local vertex IDs (shared slice; do not
// mutate). Before Seal the order is insertion order. The vertex set is
// fixed at Seal, so it is identical across compactions.
func (s *Store) LocalVertices() []graph.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.local
}

// NumVertices reports how many vertices the store owns.
func (s *Store) NumVertices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cur.local)
}

// Head reports the current (newest) epoch.
func (s *Store) Head() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// Floor reports the oldest epoch readable without a lease.
func (s *Store) Floor() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.floorLocked()
}

// BaseEpoch reports the epoch the current base freezes (0 until the first
// compaction folds overlays forward).
func (s *Store) BaseEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.epoch
}

// Compactions reports how many Compact calls have installed a new base.
func (s *Store) Compactions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactions
}

func (s *Store) floorLocked() uint64 {
	if s.head+1 <= uint64(s.retain) {
		return 0
	}
	return s.head + 1 - uint64(s.retain)
}

// slot returns the base slot of v, or -1 when v is not local. The slot
// numbering is fixed at Seal (updates cannot add vertices), so slots mean
// the same thing under every base generation, which share one index.
func (b *baseState) slot(v graph.ID) int { return b.slots.slot(v) }

// At resolves a read view of the given epoch. The returned View reads
// lock-free and stays consistent even if the epoch is evicted afterwards or
// a compaction swaps the store's base; At itself fails with ErrEvicted (or
// ErrFuture) when the epoch is already outside the readable window.
func (s *Store) At(epoch uint64) (View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.sealed {
		return View{}, errors.New("version: read before Seal")
	}
	if epoch > s.head {
		return View{}, fmt.Errorf("version: epoch %d not reached (head %d): %w", epoch, s.head, ErrFuture)
	}
	if epoch == 0 {
		if s.zero == nil || (s.floorLocked() > 0 && s.leases[0] == 0) {
			return View{}, fmt.Errorf("version: %w: epoch 0 (floor %d, head %d)", ErrEvicted, s.floorLocked(), s.head)
		}
		return View{s: s, b: s.zero, epoch: 0}, nil
	}
	ov, ok := s.overlays[epoch]
	if !ok {
		return View{}, fmt.Errorf("version: %w: epoch %d (floor %d, head %d)", ErrEvicted, epoch, s.floorLocked(), s.head)
	}
	return View{s: s, b: ov.base, epoch: epoch, ov: ov}, nil
}

// HeadView resolves the newest epoch's view.
func (s *Store) HeadView() View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.headViewLocked()
}

func (s *Store) headViewLocked() View {
	if ov := s.overlays[s.head]; ov != nil {
		return View{s: s, b: ov.base, epoch: s.head, ov: ov}
	}
	return View{s: s, b: s.cur, epoch: s.head}
}

// Lease pins epoch against eviction until a matching Release. It fails if
// the epoch is already unreadable.
func (s *Store) Lease(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.head {
		return fmt.Errorf("version: lease of epoch %d not reached (head %d): %w", epoch, s.head, ErrFuture)
	}
	// The epoch must still be readable — overlay present for epochs >= 1
	// (wherever they sit relative to the floor: a force-evicted in-window
	// epoch is just as gone), base retained for epoch 0.
	if epoch != 0 {
		if _, ok := s.overlays[epoch]; !ok {
			return fmt.Errorf("version: %w: lease of epoch %d (floor %d)", ErrEvicted, epoch, s.floorLocked())
		}
	} else if s.zero == nil || (s.floorLocked() > 0 && s.leases[0] == 0) {
		return fmt.Errorf("version: %w: lease of epoch 0 (floor %d)", ErrEvicted, s.floorLocked())
	}
	s.leases[epoch]++
	return nil
}

// LeaseHead pins the current head epoch and returns it.
func (s *Store) LeaseHead() uint64 {
	e, _ := s.LeaseHeadInfo()
	return e
}

// LeaseHeadInfo pins the current head epoch and returns it together with
// the head's attribute epoch, read under one lock acquisition so the pair
// is consistent even under concurrent Appends.
func (s *Store) LeaseHeadInfo() (epoch, attrEpoch uint64) {
	e, a, _ := s.LeaseHeadStats()
	return e, a
}

// LeaseHeadStats is LeaseHeadInfo extended with the head epoch's per-type
// edge counts, all from one lock acquisition. Lease replies carry them so
// clients can split pinned TRAVERSE batches across shards using the
// counters of the snapshot they actually sample — not the moving head's.
func (s *Store) LeaseHeadStats() (epoch, attrEpoch uint64, edges []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leases[s.head]++
	if ov := s.overlays[s.head]; ov != nil {
		attrEpoch = ov.attrEpoch
		edges = append([]int64(nil), ov.edgeCount...)
	} else {
		edges = append([]int64(nil), s.cur.edges...)
	}
	return s.head, attrEpoch, edges
}

// Release drops one lease on epoch; when the last lease on an epoch behind
// the retention floor goes, the epoch is evicted. Releasing an unleased
// epoch is a no-op.
func (s *Store) Release(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases[epoch] == 0 {
		return
	}
	s.leases[epoch]--
	if s.leases[epoch] == 0 {
		delete(s.leases, epoch)
		if epoch != 0 && epoch < s.floorLocked() {
			delete(s.overlays, epoch)
		}
	}
}

// Leases reports the live lease count of epoch.
func (s *Store) Leases(epoch uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.leases[epoch]
}

// LeaseStats reports the total live lease count across all epochs and the
// number of distinct leased epochs — the occupancy gauges a serving shard
// exports (retained-ring pressure is leased epochs the floor cannot pass).
func (s *Store) LeaseStats() (total int64, epochs int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.leases {
		if n > 0 {
			total += int64(n)
			epochs++
		}
	}
	return total, epochs
}

// Evict force-drops epoch from the ring regardless of leases, simulating a
// server that lost its lease table (restart, operator intervention). Reads
// of the epoch then fail with ErrEvicted; clients holding pins on it must
// re-pin and retry. The head epoch cannot be evicted.
func (s *Store) Evict(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch == s.head {
		return
	}
	delete(s.leases, epoch)
	if epoch != 0 {
		delete(s.overlays, epoch)
	}
	// Epoch 0 has no overlay; once the floor passes it, the lease check in
	// At already fails. Within the ring the base stays readable by
	// construction.
}

// OverlayStats describes the resident overlay footprint: how many epochs
// the ring currently holds and how many adjacency/attribute entries the
// HEAD overlay's cumulative maps carry (the monotone-growth metric a
// compaction trigger watches).
type OverlayStats struct {
	Epochs      int
	AdjEntries  int
	AttrEntries int
	BaseEpoch   uint64
}

// Overlay reports the resident overlay footprint.
func (s *Store) Overlay() OverlayStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := OverlayStats{Epochs: len(s.overlays), BaseEpoch: s.cur.epoch}
	if ov := s.overlays[s.head]; ov != nil {
		st.AdjEntries = len(ov.adj)
		st.AttrEntries = len(ov.attrs)
	}
	return st
}

// Append stages delta against the head state, validates it, and — only if
// every operation is legal — installs it as the next epoch, all-or-nothing.
// Removals of absent edges are idempotent no-ops. An effectively empty
// delta (nothing added, removed or rewritten) does not advance the epoch.
func (s *Store) Append(delta Delta) (epoch uint64, added, removed, attrsSet int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed {
		return s.head, 0, 0, 0, errors.New("version: Append before Seal")
	}
	prev := s.overlays[s.head]
	base := s.cur
	if prev != nil {
		base = prev.base
	}

	// Stage the candidate overlay. Maps are cloned from the head overlay
	// (cumulative diff-versus-base); entry slices are copied on first touch
	// this round so installed overlays and the base stay immutable.
	adj := make(map[akey]adjList, mapLen(prev))
	attrs := make(map[graph.ID]attrRow, attrLen(prev))
	counts := make([]int64, s.numTypes)
	if prev != nil {
		for k, l := range prev.adj {
			adj[k] = l
		}
		for v, a := range prev.attrs {
			attrs[v] = a
		}
		copy(counts, prev.edgeCount)
	} else {
		copy(counts, base.edges)
	}
	fresh := make(map[akey]struct{})

	cur := func(k akey) adjList {
		if l, ok := adj[k]; ok {
			return l
		}
		slot := base.slot(k.v)
		c := &base.csr[k.t]
		lo, hi := c.offs[slot], c.offs[slot+1]
		return adjList{nbr: c.nbr[lo:hi], wts: c.wts[lo:hi], epoch: base.since[akey{k.v, k.t}]}
	}
	// own returns k's staged list with this-round-private backing arrays.
	own := func(k akey) adjList {
		l := cur(k)
		if _, ok := fresh[k]; !ok {
			l = adjList{
				nbr: append(make([]graph.ID, 0, len(l.nbr)+1), l.nbr...),
				wts: append(make([]float64, 0, len(l.wts)+1), l.wts...),
			}
			fresh[k] = struct{}{}
		}
		return l
	}

	for _, e := range delta.Add {
		if base.slot(e.Src) < 0 {
			return s.head, 0, 0, 0, fmt.Errorf("version: source vertex %d is not local", e.Src)
		}
		if int(e.Type) < 0 || int(e.Type) >= s.numTypes {
			return s.head, 0, 0, 0, fmt.Errorf("version: edge type %d out of range", e.Type)
		}
		k := akey{e.Src, e.Type}
		l := own(k)
		l.nbr = append(l.nbr, e.Dst)
		l.wts = append(l.wts, e.Weight)
		adj[k] = l
		counts[e.Type]++
		added++
	}
	for _, e := range delta.Remove {
		if int(e.Type) < 0 || int(e.Type) >= s.numTypes {
			return s.head, 0, 0, 0, fmt.Errorf("version: edge type %d out of range", e.Type)
		}
		if base.slot(e.Src) < 0 {
			continue // idempotent: nothing of this source here
		}
		k := akey{e.Src, e.Type}
		l := cur(k)
		hit := -1
		for i, u := range l.nbr {
			if u == e.Dst {
				hit = i
				break
			}
		}
		if hit < 0 {
			continue
		}
		l = own(k)
		l.nbr = append(l.nbr[:hit], l.nbr[hit+1:]...)
		l.wts = append(l.wts[:hit], l.wts[hit+1:]...)
		adj[k] = l
		counts[e.Type]--
		removed++
	}
	for _, a := range delta.SetAttr {
		if base.slot(a.V) < 0 {
			return s.head, 0, 0, 0, fmt.Errorf("version: vertex %d is not local", a.V)
		}
		attrs[a.V] = attrRow{row: append([]float64(nil), a.Attr...)}
		attrsSet++
	}

	if added+removed+attrsSet == 0 {
		return s.head, 0, 0, 0, nil
	}

	next := s.head + 1
	// Stamp everything this round installed with the new epoch.
	for k := range fresh {
		l := adj[k]
		l.epoch = next
		adj[k] = l
	}
	for _, a := range delta.SetAttr {
		r := attrs[a.V]
		r.epoch = next
		attrs[a.V] = r
	}
	ov := &overlay{
		epoch:     next,
		base:      base,
		adj:       adj,
		attrs:     attrs,
		edgeCount: counts,
		rank:      make([]atomic.Pointer[rankIndex], s.numTypes),
	}
	if attrsSet > 0 {
		ov.attrEpoch = next
	} else if prev != nil {
		ov.attrEpoch = prev.attrEpoch
	}
	s.head = next
	s.overlays[next] = ov

	// Ring GC: epochs behind the floor are evicted unless leased.
	floor := s.floorLocked()
	for e := range s.overlays {
		if e < floor && s.leases[e] == 0 {
			delete(s.overlays, e)
		}
	}
	if floor > 0 && s.leases[0] == 0 {
		s.zero = nil
	}
	return next, added, removed, attrsSet, nil
}

func mapLen(ov *overlay) int {
	if ov == nil {
		return 0
	}
	return len(ov.adj) + 1
}

func attrLen(ov *overlay) int {
	if ov == nil {
		return 0
	}
	return len(ov.attrs) + 1
}

// CompactStats reports what a Compact call did.
type CompactStats struct {
	// BaseEpoch is the epoch the (possibly new) base freezes after the call.
	BaseEpoch uint64
	// FoldedAdj / FoldedAttrs count the cumulative overlay entries the new
	// base absorbed; Pruned counts entries dropped from retained overlays.
	FoldedAdj, FoldedAttrs, Pruned int
	// Rebased counts retained overlays rewritten against the new base.
	Rebased int
}

// Compact folds the overlay state at the retention floor into a freshly
// sealed base and rebases the retained overlays against it, bounding the
// cumulative overlay maps that otherwise grow monotonically under a long
// update stream. The expensive rebuild (CSR flatten, attribute fold) runs
// off-lock against immutable inputs; only the final swap takes the store
// lock. Safety:
//
//   - Live Views are untouched: they hold their own base and overlay
//     pointers, both immutable.
//   - Leased epochs below the floor keep their old overlay (paired with
//     the old base) and remain readable — no ErrEvicted for pinned
//     readers; the old base's memory is released when the last such lease
//     goes.
//   - The head epoch does not move: retained epochs keep serving exactly
//     the same adjacency, attributes and counts (pruned entries resurface
//     from the new base in the same order, whose since-stamps keep cache
//     validity exact). Draws are bit-identical across a fold: a neighbour
//     draw indexes the served list with the caller's stream, and an edge
//     draw (SampleEdge) picks by rank in (vertex ID, list position) order.
//     The fold copies each overlay list verbatim into the new base in slot
//     order, so every edge keeps its rank.
//
// Compact is a no-op when the floor has not moved past the current base.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot the fold point and the retained overlays.
	s.mu.RLock()
	if !s.sealed {
		s.mu.RUnlock()
		return CompactStats{}, errors.New("version: Compact before Seal")
	}
	curBase := s.cur
	head := s.head
	target := s.floorLocked()
	var fold *overlay
	for e := target; e > curBase.epoch && e > 0; e-- {
		if ov, ok := s.overlays[e]; ok {
			fold, target = ov, e
			break
		}
	}
	if fold == nil {
		s.mu.RUnlock()
		return CompactStats{BaseEpoch: curBase.epoch}, nil
	}
	retained := make(map[uint64]*overlay)
	for e, ov := range s.overlays {
		if e >= target && e <= head {
			retained[e] = ov
		}
	}
	s.mu.RUnlock()

	// Build the new base off-lock: the fold overlay applied over ITS OWN
	// base (overlays appended while an earlier Compact was building may
	// still pair with an older base than s.cur), all immutable inputs.
	oldBase := fold.base
	nb := &baseState{
		epoch:     target,
		local:     oldBase.local,
		slots:     oldBase.slots,
		csr:       make([]baseCSR, s.numTypes),
		edges:     append([]int64(nil), fold.edgeCount...),
		attrs:     oldBase.attrs,
		since:     make(map[akey]uint64, len(oldBase.since)+len(fold.adj)),
		attrSince: make(map[graph.ID]uint64, len(oldBase.attrSince)+len(fold.attrs)),
	}
	for k, e := range oldBase.since {
		nb.since[k] = e
	}
	for v, e := range oldBase.attrSince {
		nb.attrSince[v] = e
	}
	for t := 0; t < s.numTypes; t++ {
		oc := &oldBase.csr[t]
		c := baseCSR{offs: make([]int64, len(nb.local)+1)}
		for i, v := range nb.local {
			if l, ok := fold.adj[akey{v, graph.EdgeType(t)}]; ok {
				c.offs[i+1] = c.offs[i] + int64(len(l.nbr))
			} else {
				c.offs[i+1] = c.offs[i] + (oc.offs[i+1] - oc.offs[i])
			}
		}
		m := c.offs[len(nb.local)]
		c.nbr = make([]graph.ID, 0, m)
		c.wts = make([]float64, 0, m)
		for i, v := range nb.local {
			if l, ok := fold.adj[akey{v, graph.EdgeType(t)}]; ok {
				c.nbr = append(c.nbr, l.nbr...)
				c.wts = append(c.wts, l.wts...)
				if l.epoch > 0 {
					nb.since[akey{v, graph.EdgeType(t)}] = l.epoch
				}
			} else {
				c.nbr = append(c.nbr, oc.nbr[oc.offs[i]:oc.offs[i+1]]...)
				c.wts = append(c.wts, oc.wts[oc.offs[i]:oc.offs[i+1]]...)
			}
		}
		nb.csr[t] = c
	}
	if len(fold.attrs) > 0 {
		// Rebuild the column with the folded rows. A coded old column
		// expands each row into scratch; a float one returns its own rows
		// and never writes to scratch.
		var scratch []float64
		nb.attrs = newAttrColumn(len(nb.local), func(i int) []float64 {
			if a, ok := fold.attrs[nb.local[i]]; ok {
				return a.row
			}
			scratch = oldBase.attrs.floats(i, scratch)
			return scratch
		})
	}
	for v, a := range fold.attrs {
		if a.epoch > 0 {
			nb.attrSince[v] = a.epoch
		}
	}

	// Rebase the retained overlays: drop every entry the new base covers.
	stats := CompactStats{BaseEpoch: target, FoldedAdj: len(fold.adj), FoldedAttrs: len(fold.attrs)}
	rebased := make(map[uint64]*overlay, len(retained))
	for e, ov := range retained {
		nadj := make(map[akey]adjList)
		for k, l := range ov.adj {
			if l.epoch > target {
				nadj[k] = l
			} else {
				stats.Pruned++
			}
		}
		nattrs := make(map[graph.ID]attrRow)
		for v, a := range ov.attrs {
			if a.epoch > target {
				nattrs[v] = a
			} else {
				stats.Pruned++
			}
		}
		rebased[e] = &overlay{
			epoch:     e,
			base:      nb,
			adj:       nadj,
			attrs:     nattrs,
			attrEpoch: ov.attrEpoch,
			edgeCount: ov.edgeCount,
			rank:      make([]atomic.Pointer[rankIndex], s.numTypes),
		}
		stats.Rebased++
	}

	// Swap. Overlays appended while we built keep the old base (their maps
	// are cumulative, so they read correctly against it); the next Compact
	// picks them up. An epoch evicted mid-build is skipped.
	s.mu.Lock()
	for e, nov := range rebased {
		if s.overlays[e] == retained[e] {
			s.overlays[e] = nov
		}
	}
	s.cur = nb
	if s.floorLocked() > 0 && s.leases[0] == 0 {
		s.zero = nil
	}
	s.compactions++
	s.mu.Unlock()
	return stats, nil
}
