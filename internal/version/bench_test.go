package version

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// benchGraph builds the same preferential-attachment graph shape the
// cluster benchmarks use, plus a version store holding it.
func benchGraph(n int) (*graph.Graph, *Store) {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	b.AddVertices(0, n)
	targets := []graph.ID{0, 1}
	b.AddEdge(1, 0, 0, 1)
	for v := graph.ID(2); v < graph.ID(n); v++ {
		for e := 0; e < 3; e++ {
			dst := targets[rng.Intn(len(targets))]
			if dst != v {
				b.AddEdge(v, dst, 0, 1+rng.Float64())
				targets = append(targets, dst, v)
			}
		}
	}
	g := b.Finalize()
	s := NewStore(1)
	for v := 0; v < n; v++ {
		s.AddVertex(graph.ID(v), g.VertexAttr(graph.ID(v)))
	}
	for v := 0; v < n; v++ {
		ns := g.OutNeighbors(graph.ID(v), 0)
		for _, u := range ns {
			s.AddEdge(graph.ID(v), u, 0)
		}
	}
	s.Seal()
	return g, s
}

// BenchmarkVersionedSample compares one fixed-width uniform sampling sweep
// (batch 256, width 5, the shape of a mini-batch hop) through a head-epoch
// version.View against the unversioned path (raw CSR slices via
// graph.OutNeighbors). Both must be 0 allocs/op; the versioned head read
// adds one overlay map probe per vertex once any update epoch exists, and
// nothing at all on a store with no updates. The edges/ sub-benchmarks time
// 64 TRAVERSE draws (View.SampleEdge), one SampleEdges request's worth: a
// binary search over the base offsets, plus one over the overlay's rank
// index once updates exist.
func BenchmarkVersionedSample(b *testing.B) {
	const n, width = 2000, 5
	g, s := benchGraph(n)
	batch := make([]graph.ID, 256)
	brng := rand.New(rand.NewSource(3))
	for i := range batch {
		batch[i] = graph.ID(brng.Intn(n))
	}
	dst := make([]graph.ID, len(batch)*width)

	b.Run("unversioned", func(b *testing.B) {
		rng := sampling.NewRng(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := 0
			for _, x := range batch {
				ns := g.OutNeighbors(x, 0)
				if len(ns) == 0 {
					for k := 0; k < width; k++ {
						dst[o] = x
						o++
					}
					continue
				}
				for k := 0; k < width; k++ {
					dst[o] = ns[rng.Intn(len(ns))]
					o++
				}
			}
		}
	})
	sampleView := func(b *testing.B, view View) {
		rng := sampling.NewRng(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := 0
			for _, x := range batch {
				ns, _ := view.Neighbors(x, 0)
				if len(ns) == 0 {
					for k := 0; k < width; k++ {
						dst[o] = x
						o++
					}
					continue
				}
				for k := 0; k < width; k++ {
					dst[o] = ns[rng.Intn(len(ns))]
					o++
				}
			}
		}
	}
	// drawEdges is one SampleEdges request's worth of TRAVERSE draws.
	drawEdges := func(b *testing.B, view View) {
		rng := sampling.NewRng(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 64; k++ {
				if _, _, ok := view.SampleEdge(0, rng); !ok {
					b.Fatal("no edge drawn")
				}
			}
		}
	}
	b.Run("head/no-updates", func(b *testing.B) {
		sampleView(b, s.HeadView())
	})
	b.Run("edges/head/no-updates", func(b *testing.B) {
		drawEdges(b, s.HeadView())
	})
	// 32 update epochs touching a few vertices each: the head view now
	// carries an overlay, costing one map probe per untouched vertex.
	for e := 0; e < 32; e++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: graph.ID(e), Dst: graph.ID(e + 1), Type: 0}}}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("head/after-updates", func(b *testing.B) {
		sampleView(b, s.HeadView())
	})
	b.Run("edges/head/after-updates", func(b *testing.B) {
		drawEdges(b, s.HeadView())
	})
}

// BenchmarkCompact measures the steady-state cost of overlay compaction
// under a continuous update stream: each iteration applies one small update
// epoch and then folds the retention floor into a fresh base (CSR rebuild
// over the whole shard plus stamp-pruned rebasing of the retained ring).
// The head-overlay entry count is reported so regressions in the fold's
// memory bound are visible, not just its wall clock.
func BenchmarkCompact(b *testing.B) {
	const n = 2000
	_, s := benchGraph(n)
	// Pre-grow past the retention window so every iteration has a floor to
	// fold.
	for e := 0; e < DefaultRetain+2; e++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: graph.ID(e % n), Dst: graph.ID((e + 1) % n), Type: 0}}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: graph.ID(i % n), Dst: graph.ID((i + 3) % n), Type: 0}}}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ov := s.Overlay()
	b.ReportMetric(float64(ov.AdjEntries), "headOverlayEntries")
	if ov.AdjEntries > 2*DefaultRetain {
		b.Fatalf("compaction failed to bound the head overlay: %d entries", ov.AdjEntries)
	}
}
