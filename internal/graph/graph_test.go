package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(SimpleSchema(), directed)
	b.AddVertices(0, 3)
	b.AddEdge(0, 1, 0, 1.0)
	b.AddEdge(1, 2, 0, 2.0)
	b.AddEdge(2, 0, 0, 3.0)
	return b.Finalize()
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema([]string{"user", "item"}, []string{"click", "buy"})
	if s.NumVertexTypes() != 2 || s.NumEdgeTypes() != 2 {
		t.Fatalf("type counts = %d,%d", s.NumVertexTypes(), s.NumEdgeTypes())
	}
	if !s.Heterogeneous() {
		t.Fatal("expected heterogeneous schema")
	}
	if SimpleSchema().Heterogeneous() {
		t.Fatal("simple schema must not be heterogeneous")
	}
	vt, ok := s.VertexTypeByName("item")
	if !ok || vt != 1 {
		t.Fatalf("VertexTypeByName(item) = %d,%v", vt, ok)
	}
	if _, ok := s.EdgeTypeByName("nope"); ok {
		t.Fatal("unexpected edge type resolution")
	}
	if s.VertexTypeName(0) != "user" || s.EdgeTypeName(1) != "buy" {
		t.Fatal("type name mismatch")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(nil, []string{"e"}); err == nil {
		t.Fatal("expected error for empty vertex types")
	}
	if _, err := NewSchema([]string{"v"}, nil); err == nil {
		t.Fatal("expected error for empty edge types")
	}
}

func TestDirectedTriangle(t *testing.T) {
	g := buildTriangle(t, true)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.OutNeighbors(0, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.InNeighbors(0, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("in(0) = %v", got)
	}
	if w := g.OutWeights(2, 0); len(w) != 1 || w[0] != 3.0 {
		t.Fatalf("weights(2) = %v", w)
	}
	if !g.HasEdge(0, 1, 0) || g.HasEdge(1, 0, 0) {
		t.Fatal("HasEdge direction wrong")
	}
}

func TestUndirectedTriangle(t *testing.T) {
	g := buildTriangle(t, false)
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	for v := ID(0); v < 3; v++ {
		if d := g.OutDegree(v, 0); d != 2 {
			t.Fatalf("degree(%d) = %d", v, d)
		}
	}
	if !g.HasEdge(1, 0, 0) {
		t.Fatal("undirected edge should exist in both directions")
	}
}

func TestVerticesOfTypeAndAttrs(t *testing.T) {
	s := MustSchema([]string{"user", "item"}, []string{"click"})
	b := NewBuilder(s, true)
	u := b.AddVertex(0, []float64{1, 2, 3})
	i1 := b.AddVertex(1, []float64{4})
	i2 := b.AddVertex(1, nil)
	b.AddEdge(u, i1, 0, 1)
	b.AddEdge(u, i2, 0, 1)
	g := b.Finalize()

	users := g.VerticesOfType(0)
	items := g.VerticesOfType(1)
	if len(users) != 1 || len(items) != 2 {
		t.Fatalf("groups: %v %v", users, items)
	}
	if got := g.VertexAttr(u); len(got) != 3 || got[2] != 3 {
		t.Fatalf("attr(u) = %v", got)
	}
	if g.VertexAttr(i2) != nil {
		t.Fatal("expected nil attr")
	}
	if g.VertexType(i1) != 1 {
		t.Fatal("vertex type mismatch")
	}
}

func TestEdgeAttrs(t *testing.T) {
	b := NewBuilder(SimpleSchema(), true)
	b.AddVertices(0, 2)
	b.AddEdgeAttr(0, 1, 0, 1.0, []float64{9, 8})
	b.AddEdge(1, 0, 0, 1.0)
	g := b.Finalize()
	if a := g.EdgeAttr(0, 0, 0); len(a) != 2 || a[0] != 9 {
		t.Fatalf("edge attr = %v", a)
	}
	if a := g.EdgeAttr(1, 0, 0); a != nil {
		t.Fatalf("expected nil edge attr, got %v", a)
	}
}

func TestEdgesOfTypeIteration(t *testing.T) {
	g := buildTriangle(t, true)
	var cnt int
	var totalW float64
	g.EdgesOfType(0, func(src, dst ID, w float64) bool {
		cnt++
		totalW += w
		return true
	})
	if cnt != 3 || totalW != 6.0 {
		t.Fatalf("cnt=%d w=%f", cnt, totalW)
	}
	// Early termination.
	cnt = 0
	g.EdgesOfType(0, func(src, dst ID, w float64) bool {
		cnt++
		return false
	})
	if cnt != 1 {
		t.Fatalf("early stop visited %d", cnt)
	}
}

func TestKHop(t *testing.T) {
	// Path 0 -> 1 -> 2 -> 3
	b := NewBuilder(SimpleSchema(), true)
	b.AddVertices(0, 4)
	b.AddEdge(0, 1, 0, 1)
	b.AddEdge(1, 2, 0, 1)
	b.AddEdge(2, 3, 0, 1)
	g := b.Finalize()

	if got := g.KHopOutCount(0, 1); got != 1 {
		t.Fatalf("D_o^1(0) = %d", got)
	}
	if got := g.KHopOutCount(0, 2); got != 2 {
		t.Fatalf("D_o^2(0) = %d", got)
	}
	if got := g.KHopOutCount(0, 3); got != 3 {
		t.Fatalf("D_o^3(0) = %d", got)
	}
	if got := g.KHopInCount(3, 2); got != 2 {
		t.Fatalf("D_i^2(3) = %d", got)
	}
	if got := g.KHopOut(3, 2); len(got) != 0 {
		t.Fatalf("sink should have no out-neighbors, got %v", got)
	}
}

func TestKHopDedup(t *testing.T) {
	// Diamond: 0->1, 0->2, 1->3, 2->3. D_o^2(0) must be 3 (1,2,3), not 4.
	b := NewBuilder(SimpleSchema(), true)
	b.AddVertices(0, 4)
	b.AddEdge(0, 1, 0, 1)
	b.AddEdge(0, 2, 0, 1)
	b.AddEdge(1, 3, 0, 1)
	b.AddEdge(2, 3, 0, 1)
	g := b.Finalize()
	if got := g.KHopOutCount(0, 2); got != 3 {
		t.Fatalf("D_o^2(0) = %d, want 3", got)
	}
}

func TestImportance(t *testing.T) {
	// Hub: many in-neighbors, one out-neighbor => high importance.
	b := NewBuilder(SimpleSchema(), true)
	hub := b.AddVertex(0, nil)
	sink := b.AddVertex(0, nil)
	b.AddEdge(hub, sink, 0, 1)
	for i := 0; i < 10; i++ {
		v := b.AddVertex(0, nil)
		b.AddEdge(v, hub, 0, 1)
	}
	g := b.Finalize()
	if imp := g.Importance(hub, 1); imp != 10.0 {
		t.Fatalf("Imp^1(hub) = %f, want 10", imp)
	}
	if imp := g.Importance(sink, 1); imp != 0 {
		t.Fatalf("Imp^1(sink) = %f, want 0 (nothing to cache)", imp)
	}
	imps := g.ImportanceAll(1)
	if imps[hub] != g.Importance(hub, 1) {
		t.Fatal("ImportanceAll mismatch")
	}
}

func TestPowerLawFit(t *testing.T) {
	// Synthesize an exact power law histogram: count(v) = C * v^-2.
	hist := make(map[int]int)
	for v := 1; v <= 50; v++ {
		hist[v] = int(1e6 / float64(v*v))
	}
	fit := FitPowerLaw(hist)
	if fit.Alpha < 1.8 || fit.Alpha > 2.2 {
		t.Fatalf("alpha = %f, want ~2", fit.Alpha)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("r2 = %f", fit.R2)
	}
}

func TestPowerLawFitDegenerate(t *testing.T) {
	if fit := FitPowerLaw(map[int]int{1: 5}); fit.Alpha != 0 {
		t.Fatalf("degenerate fit alpha = %f", fit.Alpha)
	}
	if fit := FitPowerLaw(nil); fit.N != 0 {
		t.Fatal("nil histogram")
	}
}

func TestDegreePowerLawOnScaleFree(t *testing.T) {
	// Preferential-attachment graph should have a heavy-tailed degree
	// distribution with a plausible power-law exponent.
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(SimpleSchema(), true)
	const n = 3000
	b.AddVertices(0, n)
	targets := []ID{0, 1}
	b.AddEdge(1, 0, 0, 1)
	for v := ID(2); v < n; v++ {
		for e := 0; e < 2; e++ {
			dst := targets[rng.Intn(len(targets))]
			if dst == v {
				continue
			}
			b.AddEdge(v, dst, 0, 1)
			targets = append(targets, dst, v)
		}
	}
	g := b.Finalize()
	fit := FitPowerLaw(Histogram(degreesIn(g)))
	if fit.Alpha < 1.0 || fit.Alpha > 4.0 {
		t.Fatalf("implausible alpha %f", fit.Alpha)
	}
}

func degreesIn(g *Graph) []int {
	d := make([]int, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		d[v] = g.TotalInDegree(ID(v))
	}
	return d
}

func TestDynamicDelta(t *testing.T) {
	mk := func(edges [][2]ID) *Graph {
		b := NewBuilder(SimpleSchema(), true)
		b.AddVertices(0, 5)
		for _, e := range edges {
			b.AddEdge(e[0], e[1], 0, 1)
		}
		return b.Finalize()
	}
	d := &Dynamic{Snapshots: []*Graph{
		mk([][2]ID{{0, 1}, {1, 2}}),
		mk([][2]ID{{1, 2}, {2, 3}, {3, 4}}),
	}}
	if d.T() != 2 {
		t.Fatalf("T = %d", d.T())
	}
	delta := d.Delta(1, 0)
	if len(delta.Added) != 2 || len(delta.Removed) != 1 {
		t.Fatalf("delta = +%d -%d", len(delta.Added), len(delta.Removed))
	}
	if delta.Removed[0].Src != 0 || delta.Removed[0].Dst != 1 {
		t.Fatalf("removed = %+v", delta.Removed[0])
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(SimpleSchema(), true)
	b.AddVertices(0, 1)
	mustPanic(t, func() { b.AddEdge(0, 5, 0, 1) })
	mustPanic(t, func() { b.AddEdge(0, 0, 9, 1) })
	mustPanic(t, func() { b.AddVertex(3, nil) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// Property: for any random directed graph, every out-edge (u,v) appears as
// an in-edge of v, and degree sums match edge counts.
func TestQuickCSRSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(SimpleSchema(), true)
		b.AddVertices(0, n)
		m := rng.Intn(120)
		for i := 0; i < m; i++ {
			b.AddEdge(ID(rng.Intn(n)), ID(rng.Intn(n)), 0, 1)
		}
		g := b.Finalize()
		outSum, inSum := 0, 0
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(ID(v), 0)
			inSum += g.InDegree(ID(v), 0)
		}
		if outSum != m || inSum != m {
			return false
		}
		for v := ID(0); v < ID(n); v++ {
			for _, u := range g.OutNeighbors(v, 0) {
				found := false
				for _, w := range g.InNeighbors(u, 0) {
					if w == v {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbor lists are sorted after finalize (HasEdge relies on it).
func TestQuickSortedNeighbors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(SimpleSchema(), false)
		b.AddVertices(0, n)
		for i := 0; i < 80; i++ {
			b.AddEdge(ID(rng.Intn(n)), ID(rng.Intn(n)), 0, 1)
		}
		g := b.Finalize()
		for v := ID(0); v < ID(n); v++ {
			ns := g.OutNeighbors(v, 0)
			for i := 1; i < len(ns); i++ {
				if ns[i-1] > ns[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchOffsets: every rank maps to the one slot whose range holds it,
// with empty slots at the front, in the middle and at the back.
func TestSearchOffsets(t *testing.T) {
	for _, offs := range [][]int64{
		{0, 1},
		{0, 0, 0, 3, 3, 4, 9, 9},
		{0, 2, 2, 2, 5, 5},
		{5, 5, 6, 8},
	} {
		for r := offs[0]; r < offs[len(offs)-1]; r++ {
			i := SearchOffsets(offs, r)
			if i < 0 || i >= len(offs)-1 || offs[i] > r || r >= offs[i+1] {
				t.Fatalf("SearchOffsets(%v, %d) = %d", offs, r, i)
			}
		}
	}
}
