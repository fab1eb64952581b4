package version

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// shadow is an oracle: the adjacency and attrs a given epoch must serve,
// replayed independently of the store's overlay/compaction machinery.
type shadow struct {
	adj   map[akey][]graph.ID
	attrs map[graph.ID][]float64
}

func snapshotShadow(adj map[akey][]graph.ID, attrs map[graph.ID][]float64) shadow {
	s := shadow{adj: make(map[akey][]graph.ID), attrs: make(map[graph.ID][]float64)}
	for k, ns := range adj {
		s.adj[k] = append([]graph.ID(nil), ns...)
	}
	for v, a := range attrs {
		s.attrs[v] = append([]float64(nil), a...)
	}
	return s
}

func checkAgainstShadow(t *testing.T, view View, sh shadow, vertices []graph.ID, nt int) {
	t.Helper()
	for _, v := range vertices {
		for et := 0; et < nt; et++ {
			ns, ok := view.Neighbors(v, graph.EdgeType(et))
			if !ok {
				t.Fatalf("epoch %d: vertex %d not owned", view.Epoch(), v)
			}
			want := sh.adj[akey{v, graph.EdgeType(et)}]
			if len(ns) != len(want) {
				t.Fatalf("epoch %d: neighbors(%d,%d) = %v, want %v", view.Epoch(), v, et, ns, want)
			}
			for i := range want {
				if ns[i] != want[i] {
					t.Fatalf("epoch %d: neighbors(%d,%d) = %v, want %v", view.Epoch(), v, et, ns, want)
				}
			}
		}
		a, ok := view.Attr(v)
		if !ok || a[0] != sh.attrs[v][0] {
			t.Fatalf("epoch %d: attr(%d) = %v ok=%v, want %v", view.Epoch(), v, a, ok, sh.attrs[v])
		}
	}
}

// TestCompactLongStreamBoundedWithPinnedReader is the acceptance test for
// delta compaction: a long update stream (>= 4x DefaultRetain epochs) with
// periodic Compact calls keeps (a) every retained epoch and every LEASED
// epoch readable and byte-identical to an independently replayed oracle —
// no ErrEvicted for pinned readers, even pins far behind the floor — and
// (b) the head overlay's cumulative entry count bounded by the retention
// window's touched set instead of growing monotonically.
func TestCompactLongStreamBoundedWithPinnedReader(t *testing.T) {
	const n = 64
	s := NewStore(2) // DefaultRetain
	vertices := make([]graph.ID, n)
	adj := make(map[akey][]graph.ID)
	attrs := make(map[graph.ID][]float64)
	for i := 0; i < n; i++ {
		v := graph.ID(i)
		vertices[i] = v
		attrs[v] = []float64{float64(i)}
		s.AddVertex(v, attrs[v])
	}
	for i := 0; i < n; i++ {
		v, u := graph.ID(i), graph.ID((i+1)%n)
		s.AddEdge(v, u, 0)
		adj[akey{v, 0}] = append(adj[akey{v, 0}], u)
	}
	s.Seal()

	shadows := map[uint64]shadow{0: snapshotShadow(adj, attrs)}

	// Pin an epoch early; it will fall far behind the floor.
	const pinned = uint64(3)
	leasedViewTaken := false
	var leasedView View

	steps := 4*DefaultRetain + 9
	for e := 1; e <= steps; e++ {
		// Each epoch touches a rotating pair of vertices: one edge add, one
		// remove, one attr rewrite.
		v := graph.ID(e % n)
		u := graph.ID((e * 7) % n)
		d := Delta{
			Add:     []EdgeOp{{Src: v, Dst: u, Type: 0}},
			SetAttr: []AttrOp{{V: u, Attr: []float64{float64(1000 + e)}}},
		}
		if e%3 == 0 {
			w := graph.ID((e + 1) % n)
			if ns := adj[akey{w, 0}]; len(ns) > 0 {
				d.Remove = []EdgeOp{{Src: w, Dst: ns[0], Type: 0}}
			}
		}
		epoch, _, _, _, err := s.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != uint64(e) {
			t.Fatalf("epoch = %d, want %d", epoch, e)
		}
		// Replay into the oracle.
		adj[akey{v, 0}] = append(adj[akey{v, 0}], u)
		attrs[u] = []float64{float64(1000 + e)}
		if len(d.Remove) > 0 {
			k := akey{d.Remove[0].Src, 0}
			for i, x := range adj[k] {
				if x == d.Remove[0].Dst {
					adj[k] = append(append([]graph.ID(nil), adj[k][:i]...), adj[k][i+1:]...)
					break
				}
			}
		}
		shadows[uint64(e)] = snapshotShadow(adj, attrs)

		if uint64(e) == pinned {
			if err := s.Lease(pinned); err != nil {
				t.Fatal(err)
			}
			lv, err := s.At(pinned)
			if err != nil {
				t.Fatal(err)
			}
			leasedView, leasedViewTaken = lv, true
		}
		if e%5 == 0 {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() == 0 {
		t.Fatal("no compaction ever installed a new base")
	}
	if be := s.BaseEpoch(); be == 0 || be > s.Floor() {
		t.Fatalf("base epoch %d outside (0, floor %d]", be, s.Floor())
	}

	// Resident epochs: the retain window plus the one leased epoch.
	if ov := s.Overlay(); ov.Epochs > DefaultRetain+1 {
		t.Fatalf("%d resident overlays, want <= retain+leased = %d", ov.Epochs, DefaultRetain+1)
	}
	// The head overlay's cumulative maps must be bounded by what the
	// retained window touched (2 adj + 1 attr entries per epoch since the
	// base), not the whole stream's touched set.
	if ov := s.Overlay(); ov.AdjEntries > 3*DefaultRetain || ov.AttrEntries > 2*DefaultRetain {
		t.Fatalf("head overlay holds %d adj + %d attr entries after compaction", ov.AdjEntries, ov.AttrEntries)
	}

	// Every retained epoch reads exactly what the oracle says.
	for e := s.Floor(); e <= s.Head(); e++ {
		view, err := s.At(e)
		if err != nil {
			t.Fatalf("At(%d): %v", e, err)
		}
		checkAgainstShadow(t, view, shadows[e], vertices, 2)
	}
	// The leased epoch is far below the floor and must still be readable —
	// both through a fresh At and through the view resolved long ago.
	if pinned >= s.Floor() {
		t.Fatalf("test setup: pinned epoch %d not below floor %d", pinned, s.Floor())
	}
	view, err := s.At(pinned)
	if err != nil {
		t.Fatalf("leased epoch %d unreadable after compactions: %v", pinned, err)
	}
	checkAgainstShadow(t, view, shadows[pinned], vertices, 2)
	if !leasedViewTaken {
		t.Fatal("leased view never taken")
	}
	checkAgainstShadow(t, leasedView, shadows[pinned], vertices, 2)

	// Unleased epochs behind the floor are gone.
	if _, err := s.At(pinned + 1); !IsEvicted(err) {
		t.Fatalf("At(%d) = %v, want evicted", pinned+1, err)
	}
	// Releasing the lease drops the last below-floor epoch.
	s.Release(pinned)
	if _, err := s.At(pinned); !IsEvicted(err) {
		t.Fatalf("released epoch still readable: %v", err)
	}

	// Draw sanity on the compacted store: every sampled edge must exist in
	// the head oracle.
	head := s.HeadView()
	sh := shadows[s.Head()]
	rng := sampling.NewRng(11)
	for i := 0; i < 500; i++ {
		src, dst, ok := head.SampleEdge(0, rng)
		if !ok {
			t.Fatal("no edge drawn at head")
		}
		found := false
		for _, u := range sh.adj[akey{src, 0}] {
			if u == dst {
				found = true
			}
		}
		if !found {
			t.Fatalf("drew (%d,%d) not in head edge set", src, dst)
		}
	}
}

// TestCompactSinceStampsSurviveFold: after a fold, the base must still
// report the install epoch of folded lists (ChangedAt), so cache layers
// can never claim validity across an update the base absorbed.
func TestCompactSinceStampsSurviveFold(t *testing.T) {
	s := NewStoreRetain(1, 2)
	for v := graph.ID(0); v < 4; v++ {
		s.AddVertex(v, []float64{float64(v)})
	}
	s.AddEdge(0, 1, 0)
	s.AddEdge(1, 2, 0)
	s.Seal()

	// Epoch 1 rewrites vertex 0; epochs 2..5 touch vertex 1 only.
	mustAppend := func(d Delta) {
		t.Helper()
		if _, _, _, _, err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(Delta{Add: []EdgeOp{{Src: 0, Dst: 2, Type: 0}}})
	for i := 0; i < 4; i++ {
		mustAppend(Delta{Add: []EdgeOp{{Src: 1, Dst: 3, Type: 0}}})
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.BaseEpoch() == 0 {
		t.Fatal("compaction did not advance the base")
	}
	head := s.HeadView()
	if got := head.ChangedAt(0, 0); got != 1 {
		t.Fatalf("ChangedAt(0) after fold = %d, want 1", got)
	}
	if got := head.ChangedAt(2, 0); got != 0 {
		t.Fatalf("ChangedAt(untouched 2) = %d, want 0", got)
	}
	if got := head.ChangedAt(1, 0); got != 5 {
		t.Fatalf("ChangedAt(1) = %d, want 5", got)
	}
}
