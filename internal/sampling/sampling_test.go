package sampling

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestAliasUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAlias([]float64{1, 1, 1, 1})
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[a.Draw(rng)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("uniform alias skewed: counts[%d]=%d", i, c)
		}
	}
}

func TestAliasWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAlias([]float64{1, 3})
	counts := make([]int, 2)
	for i := 0; i < 40000; i++ {
		counts[a.Draw(rng)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("ratio = %f, want ~3", ratio)
	}
}

func TestAliasEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if NewAlias(nil).Draw(rng) != -1 {
		t.Fatal("empty alias must return -1")
	}
	// All-zero weights degrade to uniform.
	a := NewAlias([]float64{0, 0, 0})
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[a.Draw(rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("zero-weight alias not uniform: %v", seen)
	}
	// Negative weights treated as zero.
	b := NewAlias([]float64{-5, 1})
	for i := 0; i < 100; i++ {
		if b.Draw(rng) == 0 {
			t.Fatal("negative-weight item drawn")
		}
	}
}

// Property: alias table draws every positive-weight item eventually and
// never draws zero-weight ones (when positive mass exists).
func TestQuickAliasSupport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		ws := make([]float64, n)
		anyPos := false
		for i := range ws {
			if rng.Float64() < 0.5 {
				ws[i] = rng.Float64() + 0.1
				anyPos = true
			}
		}
		if !anyPos {
			ws[0] = 1
		}
		a := NewAlias(ws)
		for i := 0; i < 2000; i++ {
			d := a.Draw(rng)
			if ws[d] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func userItemGraph() *graph.Graph {
	s := graph.MustSchema([]string{"user", "item"}, []string{"click", "buy"})
	b := graph.NewBuilder(s, true)
	for i := 0; i < 6; i++ {
		b.AddVertex(0, nil)
	}
	for i := 0; i < 4; i++ {
		b.AddVertex(1, nil)
	}
	rng := rand.New(rand.NewSource(7))
	for u := graph.ID(0); u < 6; u++ {
		for k := 0; k < 3; k++ {
			b.AddEdge(u, 6+graph.ID(rng.Intn(4)), 0, 1+rng.Float64())
		}
		b.AddEdge(u, 6+graph.ID(rng.Intn(4)), 1, 1)
	}
	return b.Finalize()
}

func TestTraverseVertices(t *testing.T) {
	g := userItemGraph()
	s := NewTraverse(g, rand.New(rand.NewSource(1)))
	batch := s.SampleVertices(0, 16)
	if len(batch) != 16 {
		t.Fatalf("batch = %d", len(batch))
	}
	for _, v := range batch {
		if g.OutDegree(v, 0) == 0 {
			t.Fatalf("sampled vertex %d has no click edges", v)
		}
	}
}

func TestTraverseVerticesOfType(t *testing.T) {
	g := userItemGraph()
	s := NewTraverse(g, rand.New(rand.NewSource(1)))
	for _, v := range s.SampleVerticesOfType(1, 8) {
		if g.VertexType(v) != 1 {
			t.Fatalf("vertex %d is not an item", v)
		}
	}
}

func TestTraverseEdges(t *testing.T) {
	g := userItemGraph()
	s := NewTraverse(g, rand.New(rand.NewSource(1)))
	es := s.SampleEdges(1, 10)
	if len(es) != 10 {
		t.Fatalf("edges = %d", len(es))
	}
	for _, e := range es {
		if !g.HasEdge(e.Src, e.Dst, 1) {
			t.Fatalf("sampled nonexistent edge %+v", e)
		}
	}
}

// TestTraverseEdgesFollowRankRule: the k-th local TRAVERSE draw is the
// edge of rank r in g.EdgesOfType order, with r the high word of the k-th
// Uint64 of an identically seeded generator times the edge count.
func TestTraverseEdgesFollowRankRule(t *testing.T) {
	g := userItemGraph()
	for et := graph.EdgeType(0); et < 2; et++ {
		var all []graph.Edge
		g.EdgesOfType(et, func(src, dst graph.ID, w float64) bool {
			all = append(all, graph.Edge{Src: src, Dst: dst, Type: et, Weight: w})
			return true
		})
		oracle := rand.New(rand.NewSource(5))
		got := NewTraverse(g, rand.New(rand.NewSource(5))).SampleEdges(et, 200)
		for k, e := range got {
			hi, _ := bits.Mul64(oracle.Uint64(), uint64(len(all)))
			if want := all[hi]; e.Src != want.Src || e.Dst != want.Dst || e.Weight != want.Weight || e.Type != et {
				t.Fatalf("type %d draw %d = %+v, want %+v", et, k, e, want)
			}
		}
	}
}

func TestTraverseEpoch(t *testing.T) {
	g := userItemGraph()
	s := NewTraverse(g, rand.New(rand.NewSource(1)))
	ep := s.EpochVertices(0)
	if len(ep) != 6 {
		t.Fatalf("epoch = %v", ep)
	}
}

func TestNeighborhoodAlignment(t *testing.T) {
	g := userItemGraph()
	s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
	batch := []graph.ID{0, 1, 2}
	ctx, err := s.Sample(0, batch, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Layers[0]) != 3 || len(ctx.Layers[1]) != 12 || len(ctx.Layers[2]) != 24 {
		t.Fatalf("layer sizes: %d %d %d", len(ctx.Layers[0]), len(ctx.Layers[1]), len(ctx.Layers[2]))
	}
	// Hop-1 samples must be actual neighbors.
	for i, v := range batch {
		for _, u := range ctx.NeighborsOf(0, i) {
			if !g.HasEdge(v, u, 0) {
				t.Fatalf("%d -> %d is not a click edge", v, u)
			}
		}
	}
}

func TestNeighborhoodPadsIsolated(t *testing.T) {
	g := userItemGraph()
	s := NewNeighborhood(NewGraphSource(g), rand.New(rand.NewSource(1)))
	// Items have no out-edges: their samples must be themselves.
	ctx, err := s.Sample(0, []graph.ID{6}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ctx.Layers[1] {
		if u != 6 {
			t.Fatalf("isolated vertex padded with %d", u)
		}
	}
}

func TestNegativeSampler(t *testing.T) {
	g := userItemGraph()
	rng := rand.New(rand.NewSource(5))
	neg := NewNegative(g, 0, rng)
	if neg.NumCandidates() == 0 {
		t.Fatal("no candidates")
	}
	batch := []graph.ID{0, 1}
	out := neg.Sample(batch, 5)
	if len(out) != 10 {
		t.Fatalf("out = %d", len(out))
	}
	for _, v := range out {
		if g.VertexType(v) != 1 {
			t.Fatalf("negative %d is not an item (candidates must have in-edges)", v)
		}
	}
}

func TestNegativeAvoiding(t *testing.T) {
	g := userItemGraph()
	neg := NewNegative(g, 0, rand.New(rand.NewSource(5)))
	exclude := map[graph.ID]struct{}{6: {}, 7: {}}
	for _, v := range neg.SampleAvoiding(exclude, 50) {
		if _, bad := exclude[v]; bad {
			t.Fatalf("excluded vertex %d sampled", v)
		}
	}
}

func TestNegativeDistributionFollowsDegree(t *testing.T) {
	// Item in-degree differences should shape negative sampling frequency.
	b := graph.NewBuilder(graph.MustSchema([]string{"u", "i"}, []string{"e"}), true)
	for i := 0; i < 20; i++ {
		b.AddVertex(0, nil)
	}
	hot := b.AddVertex(1, nil)
	cold := b.AddVertex(1, nil)
	for u := graph.ID(0); u < 20; u++ {
		b.AddEdge(u, hot, 0, 1)
	}
	b.AddEdge(0, cold, 0, 1)
	g := b.Finalize()
	neg := NewNegative(g, 0, rand.New(rand.NewSource(5)))
	counts := map[graph.ID]int{}
	for _, v := range neg.Sample([]graph.ID{1}, 4000) {
		counts[v]++
	}
	// Expected ratio (20/1)^0.75 ~ 9.5.
	ratio := float64(counts[hot]) / math.Max(1, float64(counts[cold]))
	if ratio < 5 || ratio > 16 {
		t.Fatalf("unigram^0.75 ratio = %f", ratio)
	}
}

func TestWeightedSamplerDrawAndSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewWeighted([]float64{1, 0, 3}, 3)
	if s.Total() != 4 {
		t.Fatalf("total = %f", s.Total())
	}
	counts := make([]int, 3)
	for i := 0; i < 8000; i++ {
		counts[s.Draw(rng)]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-weight item drawn")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("ratio = %f", ratio)
	}
	s.Set(1, 10)
	if s.Weight(1) != 10 || s.Total() != 14 {
		t.Fatalf("after set: w=%f total=%f", s.Weight(1), s.Total())
	}
}

func TestWeightedSamplerBackward(t *testing.T) {
	s := NewWeighted(nil, 4)
	// No registered gradient: Backward is a no-op.
	s.Backward(0, 1.0)
	if s.Weight(0) != 1 {
		t.Fatal("backward without gradient changed weights")
	}
	// Register: each backward adds signal * 0.5.
	s.RegisterGradient(func(idx int, signal float64) float64 { return 0.5 * signal })
	s.Backward(0, 2.0)
	if s.Weight(0) != 2.0 {
		t.Fatalf("w0 = %f", s.Weight(0))
	}
	// Weight floors at zero.
	s.Backward(1, -100)
	if s.Weight(1) != 0 {
		t.Fatalf("w1 = %f", s.Weight(1))
	}
}

func TestWeightedAllZero(t *testing.T) {
	s := NewWeighted([]float64{0, 0}, 2)
	if s.Draw(rand.New(rand.NewSource(1))) != -1 {
		t.Fatal("all-zero sampler must return -1")
	}
}

func TestMPSCQueue(t *testing.T) {
	q := newMPSCQueue()
	if q.pop() != nil {
		t.Fatal("empty pop")
	}
	sum := 0
	q.push(func() { sum += 1 })
	q.push(func() { sum += 2 })
	for op := q.pop(); op != nil; op = q.pop() {
		op()
	}
	if sum != 3 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestBucketsSerializePerVertex(t *testing.T) {
	b := NewBuckets(4)
	defer b.Close()

	// Concurrent unsynchronized increments to per-vertex counters: the
	// bucket serialization is the only thing preventing a data race (run
	// with -race) and lost updates.
	const perVertex = 500
	counters := make([]int, 8) // vertices 0..7
	var wg sync.WaitGroup
	for v := graph.ID(0); v < 8; v++ {
		for p := 0; p < 4; p++ { // 4 producers per vertex
			wg.Add(1)
			go func(v graph.ID) {
				defer wg.Done()
				for i := 0; i < perVertex/4; i++ {
					b.SubmitWait(v, func() { counters[v]++ })
				}
			}(v)
		}
	}
	wg.Wait()
	for v, c := range counters {
		if c != perVertex {
			t.Fatalf("counter[%d] = %d, want %d (lost updates)", v, c, perVertex)
		}
	}
	if b.Processed() != int64(8*perVertex) {
		t.Fatalf("processed = %d", b.Processed())
	}
}

func TestBucketsCloseDrains(t *testing.T) {
	b := NewBuckets(2)
	done := make([]bool, 100)
	for i := 0; i < 100; i++ {
		i := i
		b.Submit(graph.ID(i), func() { done[i] = true })
	}
	b.Close()
	for i, d := range done {
		if !d {
			t.Fatalf("op %d not drained on close", i)
		}
	}
}

func TestBucketOfStable(t *testing.T) {
	b := NewBuckets(3)
	defer b.Close()
	for v := graph.ID(0); v < 100; v++ {
		if b.bucketOf(v) != b.bucketOf(v) {
			t.Fatal("bucketOf must be deterministic")
		}
		if i := b.bucketOf(v); i < 0 || i >= 3 {
			t.Fatalf("bucket out of range: %d", i)
		}
	}
}
