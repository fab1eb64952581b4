package sampling

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Before/after numbers for these benchmarks are tracked in CHANGES.md.

func benchSampleGraph(n, deg int) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	b.AddVertices(0, n)
	rng := rand.New(rand.NewSource(42))
	for v := 0; v < n; v++ {
		for j := 0; j < deg; j++ {
			b.AddEdge(graph.ID(v), graph.ID(rng.Intn(n)), 0, 1+rng.Float64())
		}
	}
	return b.Finalize()
}

func BenchmarkNeighborhoodSample(b *testing.B) {
	g := benchSampleGraph(5000, 16)
	batch := make([]graph.ID, 512)
	for i := range batch {
		batch[i] = graph.ID(i)
	}
	hops := []int{5, 3}
	b.Run("uniform", func(b *testing.B) {
		s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
		var ctx Context
		rng := NewRng(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRng(b *testing.B) {
	b.Run("splitmix", func(b *testing.B) {
		rng := NewRng(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng.Intn(16)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng.Intn(16)
		}
	})
}
