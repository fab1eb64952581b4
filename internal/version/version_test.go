package version

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// buildStore seals a small 2-type store: vertices 0..3, type-0 edges
// 0->{1,2}, 1->{2}, 2->{3}, type-1 edge 0->3.
func buildStore(retain int) *Store {
	s := NewStoreRetain(2, retain)
	for v := graph.ID(0); v < 4; v++ {
		s.AddVertex(v, []float64{float64(v)})
	}
	s.AddEdge(0, 1, 0)
	s.AddEdge(0, 2, 0)
	s.AddEdge(1, 2, 0)
	s.AddEdge(2, 3, 0)
	s.AddEdge(0, 3, 1)
	s.Seal()
	return s
}

func neighbors(t *testing.T, v View, x graph.ID, et graph.EdgeType) []graph.ID {
	t.Helper()
	ns, ok := v.Neighbors(x, et)
	if !ok {
		t.Fatalf("vertex %d not owned", x)
	}
	return ns
}

func TestViewsAreIsolatedAcrossEpochs(t *testing.T) {
	s := buildStore(8)
	v0 := s.HeadView()
	if got := neighbors(t, v0, 0, 0); len(got) != 2 {
		t.Fatalf("base neighbors(0) = %v", got)
	}

	epoch, added, removed, _, err := s.Append(Delta{
		Add:    []EdgeOp{{Src: 0, Dst: 3, Type: 0}},
		Remove: []EdgeOp{{Src: 0, Dst: 1, Type: 0}},
	})
	if err != nil || epoch != 1 || added != 1 || removed != 1 {
		t.Fatalf("append: epoch=%d added=%d removed=%d err=%v", epoch, added, removed, err)
	}

	// The old view still reads the base: copy-on-write, no in-place rewrite.
	if got := neighbors(t, v0, 0, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("epoch-0 view changed after append: %v", got)
	}
	v1 := s.HeadView()
	got := neighbors(t, v1, 0, 0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("epoch-1 neighbors(0) = %v, want [2 3]", got)
	}
	// Untouched vertices fall through to the base at every epoch.
	if got := neighbors(t, v1, 1, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("epoch-1 neighbors(1) = %v", got)
	}
	if v1.Touched(1, 0) || !v1.Touched(0, 0) {
		t.Fatal("touched set wrong")
	}
	// Edge counts follow the epoch.
	if v0.EdgeCount(0) != 4 || v1.EdgeCount(0) != 4 || v1.EdgeCount(1) != 1 {
		t.Fatalf("edge counts: v0=%d v1=%d/%d", v0.EdgeCount(0), v1.EdgeCount(0), v1.EdgeCount(1))
	}
}

func TestAppendAllOrNothing(t *testing.T) {
	s := buildStore(8)
	// Vertex 9 is not local: the whole batch must be rejected, including the
	// legal first addition, and the epoch must not advance.
	_, added, removed, set, err := s.Append(Delta{
		Add: []EdgeOp{
			{Src: 0, Dst: 3, Type: 0},
			{Src: 9, Dst: 0, Type: 0},
		},
	})
	if err == nil {
		t.Fatal("expected ownership error")
	}
	if added+removed+set != 0 {
		t.Fatalf("partial apply reported: %d/%d/%d", added, removed, set)
	}
	if s.Head() != 0 {
		t.Fatalf("epoch advanced to %d on failed batch", s.Head())
	}
	if got := neighbors(t, s.HeadView(), 0, 0); len(got) != 2 {
		t.Fatalf("failed batch leaked edges: %v", got)
	}

	// Idempotent removals and empty deltas do not advance the epoch.
	if _, _, _, _, err := s.Append(Delta{Remove: []EdgeOp{{Src: 0, Dst: 99, Type: 0}}}); err != nil {
		t.Fatal(err)
	}
	if s.Head() != 0 {
		t.Fatal("no-op delta advanced the epoch")
	}
}

// TestAttrOverlaysAndAttrEpoch: a SetAttr epoch serves the new row from
// that epoch on, an older epoch keeps the original, and edge-only epochs
// before and after leave the rows alone.
func TestAttrOverlaysAndAttrEpoch(t *testing.T) {
	s := buildStore(8)
	if _, _, _, set, err := s.Append(Delta{Add: []EdgeOp{{Src: 1, Dst: 3, Type: 0}}}); err != nil || set != 0 {
		t.Fatal(err)
	}
	if a, ok := s.HeadView().Attr(2); !ok || a[0] != 2 {
		t.Fatalf("attr(2) after edge-only delta = %v", a)
	}
	if _, _, _, set, err := s.Append(Delta{SetAttr: []AttrOp{{V: 2, Attr: []float64{42}}}}); err != nil || set != 1 {
		t.Fatalf("set=%d err=%v", set, err)
	}
	head := s.HeadView()
	if a, ok := head.Attr(2); !ok || a[0] != 42 {
		t.Fatalf("attr(2) = %v", a)
	}
	if a, ok := head.Attr(3); !ok || a[0] != 3 {
		t.Fatalf("untouched attr(3) = %v", a)
	}
	// The older epoch still serves the original row.
	v1, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v1.Attr(2); a[0] != 2 {
		t.Fatalf("epoch-1 attr(2) = %v", a)
	}
	// A later edge-only epoch keeps the rewritten row.
	if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 1, Dst: 0, Type: 0}}}); err != nil {
		t.Fatal(err)
	}
	if a, _ := s.HeadView().Attr(2); a[0] != 42 {
		t.Fatalf("attr(2) after later edge delta = %v, want 42", a)
	}
}

func TestRingEvictionAndLeases(t *testing.T) {
	s := buildStore(3) // retain the last 3 epochs
	if err := s.Lease(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 0, Dst: graph.ID(i % 4), Type: 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Head() != 6 || s.Floor() != 4 {
		t.Fatalf("head=%d floor=%d", s.Head(), s.Floor())
	}
	// Unleased epochs behind the floor are gone.
	if _, err := s.At(2); !IsEvicted(err) {
		t.Fatalf("At(2) = %v, want evicted", err)
	}
	// Epoch 0 survives: it was leased before the window moved.
	if _, err := s.At(0); err != nil {
		t.Fatalf("leased epoch 0 evicted: %v", err)
	}
	// Future epochs are rejected distinctly.
	if _, err := s.At(99); err == nil || IsEvicted(err) {
		t.Fatalf("At(99) = %v, want future error", err)
	}
	// Releasing the last lease behind the floor evicts.
	s.Release(0)
	if _, err := s.At(0); !IsEvicted(err) {
		t.Fatalf("At(0) after release = %v, want evicted", err)
	}
	// A live view resolved before eviction keeps working (immutability).
	v, err := s.At(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 1, Dst: 2, Type: 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.At(5); !IsEvicted(err) {
		t.Fatal("epoch 5 should have fallen out")
	}
	if ns := neighbors(t, v, 0, 0); len(ns) != 2+5 {
		t.Fatalf("stale view sees %d neighbors, want 7 (epoch 5 = base + 5 adds)", len(ns))
	}
}

func TestLeaseOfEvictedEpochFails(t *testing.T) {
	s := buildStore(2)
	for i := 0; i < 4; i++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 0, Dst: 1, Type: 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Lease(1); !IsEvicted(err) {
		t.Fatalf("lease of evicted epoch = %v", err)
	}
	if e, _ := s.LeaseHeadStats(); e != 4 {
		t.Fatalf("LeaseHeadStats = %d", e)
	}
	if s.Leases(4) != 1 {
		t.Fatalf("leases(4) = %d", s.Leases(4))
	}
}

// rankOrder enumerates the type-t edges v serves in (vertex ID, list
// position) order, the order SampleEdge ranks them in.
func rankOrder(s *Store, v View, et graph.EdgeType) [][2]graph.ID {
	var all [][2]graph.ID
	for _, x := range s.LocalVertices() {
		ns, _ := v.Neighbors(x, et)
		for _, u := range ns {
			all = append(all, [2]graph.ID{x, u})
		}
	}
	return all
}

// checkRankRule: the k-th SampleEdge draw is the edge of rank r in
// rankOrder, with r the k-th Int64n(EdgeCount) of a snapshot of the same
// Rng. It returns the draws.
func checkRankRule(t *testing.T, what string, s *Store, v View, et graph.EdgeType, seed uint64) [][2]graph.ID {
	t.Helper()
	all := rankOrder(s, v, et)
	if int64(len(all)) != v.EdgeCount(et) {
		t.Fatalf("%s: %d edges enumerated, EdgeCount %d", what, len(all), v.EdgeCount(et))
	}
	rng := sampling.NewRng(seed)
	oracle := rng.Snapshot()
	var draws [][2]graph.ID
	for k := 0; k < 200; k++ {
		src, dst, ok := v.SampleEdge(et, rng)
		want := all[oracle.Int64n(int64(len(all)))]
		if !ok || src != want[0] || dst != want[1] {
			t.Fatalf("%s: draw %d = (%d,%d) ok=%v, want rank edge %v", what, k, src, dst, ok, want)
		}
		draws = append(draws, want)
	}
	return draws
}

func TestSampleEdgeMatchesEpoch(t *testing.T) {
	s := buildStore(2)
	base := s.HeadView()
	checkRankRule(t, "base", s, base, 0, 3)
	checkRankRule(t, "base type 1", s, base, 1, 3)
	if _, _, _, _, err := s.Append(Delta{
		Add:    []EdgeOp{{Src: 3, Dst: 0, Type: 0}},
		Remove: []EdgeOp{{Src: 0, Dst: 1, Type: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	valid := map[[2]graph.ID]bool{
		{0, 2}: true, {1, 2}: true, {2, 3}: true, {3, 0}: true,
	}
	v := s.HeadView()
	checkRankRule(t, "overlay", s, v, 0, 3)
	rng := sampling.NewRng(3)
	seen := map[[2]graph.ID]int{}
	for i := 0; i < 4000; i++ {
		src, dst, ok := v.SampleEdge(0, rng)
		if !ok {
			t.Fatal("no edge drawn")
		}
		if !valid[[2]graph.ID{src, dst}] {
			t.Fatalf("drew edge (%d,%d) not in epoch-1 edge set", src, dst)
		}
		seen[[2]graph.ID{src, dst}]++
	}
	for e := range valid {
		if seen[e] < 4000/4/2 {
			t.Fatalf("edge %v drawn %d times (non-uniform)", e, seen[e])
		}
	}

	// An overlay that touches only another type draws type-0 edges exactly
	// as the base does.
	other := buildStore(2)
	otherBase := other.HeadView()
	if _, _, _, _, err := other.Append(Delta{Add: []EdgeOp{{Src: 1, Dst: 3, Type: 1}}}); err != nil {
		t.Fatal(err)
	}
	ov := other.HeadView()
	want := checkRankRule(t, "base", other, otherBase, 0, 11)
	for k, d := range checkRankRule(t, "other-type overlay", other, ov, 0, 11) {
		if d != want[k] {
			t.Fatalf("other-type overlay draw %d = %v, base draw %v", k, d, want[k])
		}
	}
	checkRankRule(t, "other-type overlay, type 1", other, ov, 1, 11)

	// An update confined to another type must not perturb type-0 draws, and
	// neither may a compaction folding epoch 1's lists into the base.
	if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 0, Dst: 2, Type: 1}}}); err != nil {
		t.Fatal(err)
	}
	before := checkRankRule(t, "overlay, type-1 update", s, s.HeadView(), 0, 3)
	for k, d := range checkRankRule(t, "overlay", s, v, 0, 3) {
		if d != before[k] {
			t.Fatalf("type-1 update moved type-0 draw %d: %v -> %v", k, d, before[k])
		}
	}
	if st, err := s.Compact(); err != nil || st.BaseEpoch != 1 {
		t.Fatalf("Compact = %+v, %v; want base epoch 1", st, err)
	}
	after, err := s.At(2)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range checkRankRule(t, "compacted", s, after, 0, 3) {
		if d != before[k] {
			t.Fatalf("compaction moved draw %d: %v -> %v", k, before[k], d)
		}
	}
	checkRankRule(t, "compacted, type 1", s, after, 1, 3)
}

// TestSampleEdgeUniformUnderHeavyOverlay: a chi-square test over a view
// whose overlay supersedes 99% of the base edge mass. Vertex 0 has 1000
// base edges and loses 10 to an update; vertices 1..10 keep one base edge
// each. Every one of the 1000 edges must come up about 20 times in 20k
// draws.
func TestSampleEdgeUniformUnderHeavyOverlay(t *testing.T) {
	s := NewStore(1)
	for v := graph.ID(0); v <= 10; v++ {
		s.AddVertex(v, nil)
	}
	for i := 0; i < 1000; i++ {
		s.AddEdge(0, graph.ID(100+i), 0)
	}
	for v := graph.ID(1); v <= 10; v++ {
		s.AddEdge(v, 0, 0)
	}
	s.Seal()
	var rm []EdgeOp
	for i := 0; i < 10; i++ {
		rm = append(rm, EdgeOp{Src: 0, Dst: graph.ID(100 + i), Type: 0})
	}
	if _, _, removed, _, err := s.Append(Delta{Remove: rm}); err != nil || removed != 10 {
		t.Fatalf("append: removed %d, %v", removed, err)
	}
	v := s.HeadView()
	if v.EdgeCount(0) != 1000 {
		t.Fatalf("EdgeCount = %d", v.EdgeCount(0))
	}
	const draws = 20000
	counts := map[[2]graph.ID]int{}
	rng := sampling.NewRng(1)
	for i := 0; i < draws; i++ {
		src, dst, ok := v.SampleEdge(0, rng)
		if !ok {
			t.Fatal("no edge drawn")
		}
		counts[[2]graph.ID{src, dst}]++
	}
	all := rankOrder(s, v, 0)
	expect := float64(draws) / float64(len(all))
	chi2 := 0.0
	for _, e := range all {
		d := float64(counts[e]) - expect
		chi2 += d * d / expect
		delete(counts, e)
	}
	if len(counts) != 0 {
		t.Fatalf("drew edges outside the view: %v", counts)
	}
	// 1142.8 is the 0.999 quantile of chi-square with 999 degrees of
	// freedom (Wilson–Hilferty).
	if chi2 > 1142.8 {
		t.Fatalf("chi-square %.1f over %d edges exceeds 1142.8 (p < 0.001)", chi2, len(all))
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := buildStore(4)
	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := Delta{Add: []EdgeOp{{Src: graph.ID(i % 4), Dst: graph.ID((i + 1) % 4), Type: 0}}}
			if i%3 == 0 {
				d.Remove = []EdgeOp{{Src: graph.ID(i % 4), Dst: graph.ID((i + 1) % 4), Type: 0}}
			}
			if i%5 == 0 {
				d.SetAttr = []AttrOp{{V: graph.ID(i % 4), Attr: []float64{float64(i)}}}
			}
			if _, _, _, _, err := s.Append(d); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := sampling.NewRng(seed)
			for i := 0; i < 2000; i++ {
				e, _ := s.LeaseHeadStats()
				v, err := s.At(e)
				if err != nil {
					t.Errorf("At(leased %d): %v", e, err)
					s.Release(e)
					return
				}
				count := v.EdgeCount(0)
				// A view is a snapshot: repeated reads agree with themselves.
				sum := int64(0)
				for _, x := range s.LocalVertices() {
					ns, _ := v.Neighbors(x, 0)
					sum += int64(len(ns))
				}
				if sum != count {
					t.Errorf("epoch %d: edge count %d, adjacency sum %d", e, count, sum)
					s.Release(e)
					return
				}
				if count > 0 {
					if _, _, ok := v.SampleEdge(0, rng); !ok {
						t.Errorf("epoch %d: no edge drawn with count %d", e, count)
					}
				}
				v.Attr(graph.ID(i % 4))
				s.Release(e)
			}
		}(uint64(w + 1))
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
