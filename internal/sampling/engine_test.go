package sampling

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// weightedStar builds a graph whose vertex 0 has out-neighbors 1..n with the
// given weights.
func weightedStar(weights []float64) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	b.AddVertices(0, len(weights)+1)
	for i, w := range weights {
		b.AddEdge(0, graph.ID(i+1), 0, w)
	}
	return b.Finalize()
}

func TestSampleIntoMatchesSampleSemantics(t *testing.T) {
	g := userItemGraph()
	s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
	var ctx Context
	rng := NewRng(9)
	batch := []graph.ID{0, 1, 2}
	if err := s.SampleInto(&ctx, 0, batch, []int{4, 2}, rng); err != nil {
		t.Fatal(err)
	}
	if len(ctx.Layers[0]) != 3 || len(ctx.Layers[1]) != 12 || len(ctx.Layers[2]) != 24 {
		t.Fatalf("layer sizes: %d %d %d", len(ctx.Layers[0]), len(ctx.Layers[1]), len(ctx.Layers[2]))
	}
	for i, v := range batch {
		for _, u := range ctx.NeighborsOf(0, i) {
			if !g.HasEdge(v, u, 0) {
				t.Fatalf("%d -> %d is not a click edge", v, u)
			}
		}
	}
	// Isolated vertices pad with themselves, same as Sample.
	if err := s.SampleInto(&ctx, 0, []graph.ID{6}, []int{3}, rng); err != nil {
		t.Fatal(err)
	}
	for _, u := range ctx.Layers[1] {
		if u != 6 {
			t.Fatalf("isolated vertex padded with %d", u)
		}
	}
	// Reuse shrinks layers correctly: a narrower second call must not leak
	// stale entries.
	if got := len(ctx.Layers); got != 2 {
		t.Fatalf("layers after narrower call = %d, want 2", got)
	}
}

// TestSampleIntoConcurrent shares one Neighborhood across goroutines, each
// with its own Context and Rng; run with -race to validate the sharing
// contract.
func TestSampleIntoConcurrent(t *testing.T) {
	g := userItemGraph()
	s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var ctx Context
			rng := NewRng(seed)
			batch := []graph.ID{0, 1, 2, 3}
			for i := 0; i < 200; i++ {
				if err := s.SampleInto(&ctx, 0, batch, []int{4, 2}, rng); err != nil {
					t.Errorf("SampleInto: %v", err)
					return
				}
				if len(ctx.Layers[2]) != 4*4*2 {
					t.Errorf("misaligned layer: %d", len(ctx.Layers[2]))
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

func TestSampleIntoSteadyStateAllocFree(t *testing.T) {
	g := weightedStar([]float64{1, 2, 3, 4})
	s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
	var ctx Context
	rng := NewRng(7)
	batch := []graph.ID{0, 0, 0, 0}
	hops := []int{5, 3}
	// Warm: grows the layer buffers.
	for i := 0; i < 4; i++ {
		if err := s.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state SampleInto allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSampleVerticesEmptyPool(t *testing.T) {
	// Edge type 1 ("buy") exists in the schema but carries no edges: the old
	// rejection loop would spin forever here.
	s := graph.MustSchema([]string{"v"}, []string{"click", "buy"})
	b := graph.NewBuilder(s, true)
	b.AddVertices(0, 5)
	b.AddEdge(0, 1, 0, 1)
	g := b.Finalize()
	tr := NewTraverse(g, rand.New(rand.NewSource(1)))
	if got := tr.SampleVertices(1, 8); len(got) != 0 {
		t.Fatalf("empty pool must yield empty batch, got %v", got)
	}
	if got := tr.SampleEdges(1, 8); len(got) != 0 {
		t.Fatalf("empty edge set must yield empty batch, got %v", got)
	}
	// And the non-empty type still works.
	if got := tr.SampleVertices(0, 8); len(got) != 8 {
		t.Fatalf("batch = %d, want 8", len(got))
	}
}

func TestSampleVerticesOfTypeEmptyPool(t *testing.T) {
	s := graph.MustSchema([]string{"user", "item"}, []string{"e"})
	b := graph.NewBuilder(s, true)
	b.AddVertex(0, nil) // users only; item pool is empty
	g := b.Finalize()
	tr := NewTraverse(g, rand.New(rand.NewSource(1)))
	if got := tr.SampleVerticesOfType(1, 4); len(got) != 0 {
		t.Fatalf("empty type pool must yield empty batch, got %v", got)
	}
}

func TestRngBasics(t *testing.T) {
	rng := NewRng(1)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		n := rng.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
		counts[n]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn skewed: counts[%d] = %d", i, c)
		}
	}
	for i := 0; i < 1000; i++ {
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	// Distinct seeds give distinct streams.
	a, b := NewRng(1), NewRng(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from distinct seeds collided %d/100 times", same)
	}
}

// TestRngInt64n: Int64n stays in [0, n) for n = 1, a small n (every value
// drawn) and an n above 2^32, where both halves of the range must be hit
// (a 32-bit reduction never reaches the upper half).
func TestRngInt64n(t *testing.T) {
	rng := NewRng(3)
	for i := 0; i < 100; i++ {
		if v := rng.Int64n(1); v != 0 {
			t.Fatalf("Int64n(1) = %d", v)
		}
	}
	seen := make([]bool, 7)
	for i := 0; i < 1000; i++ {
		v := rng.Int64n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int64n(7) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Int64n(7) never drew %d", v)
		}
	}
	const big = 3<<32 + 7
	var lower, upper int
	for i := 0; i < 1000; i++ {
		v := rng.Int64n(big)
		if v < 0 || v >= big {
			t.Fatalf("Int64n(%d) = %d", int64(big), v)
		}
		if v < big/2 {
			lower++
		} else {
			upper++
		}
	}
	if lower < 400 || upper < 400 {
		t.Fatalf("Int64n(%d) halves: %d lower, %d upper", int64(big), lower, upper)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	rng.Int64n(0)
}
