package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// randomGraph builds a directed random graph for scratch/BFS tests.
func randomGraph(n, deg int, seed int64) *Graph {
	b := NewBuilder(SimpleSchema(), true)
	b.AddVertices(0, n)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		for j := 0; j < deg; j++ {
			b.AddEdge(ID(v), ID(rng.Intn(n)), 0, 1+rng.Float64())
		}
	}
	return b.Finalize()
}

// khopReference is the original map-based BFS, kept as an oracle for the
// epoch-stamped implementation.
func khopReference(g *Graph, v ID, k int, out bool) []ID {
	if k <= 0 {
		return nil
	}
	nbrs := func(u ID) []ID {
		if out {
			return g.Neighbors(u)
		}
		var ns []ID
		for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
			ns = append(ns, g.InNeighbors(u, EdgeType(t))...)
		}
		return ns
	}
	seen := map[ID]struct{}{v: {}}
	frontier := []ID{v}
	var result []ID
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []ID
		for _, u := range frontier {
			for _, w := range nbrs(u) {
				if _, ok := seen[w]; ok {
					continue
				}
				seen[w] = struct{}{}
				next = append(next, w)
				result = append(result, w)
			}
		}
		frontier = next
	}
	return result
}

func TestKHopScratchMatchesReference(t *testing.T) {
	g := randomGraph(300, 4, 11)
	s := NewScratch(g)
	for _, k := range []int{0, 1, 2, 3} {
		for v := ID(0); v < 50; v++ {
			got := append([]ID(nil), g.KHopOutScratch(v, k, s)...)
			want := khopReference(g, v, k, true)
			if len(got) != len(want) {
				t.Fatalf("k=%d v=%d: out size %d != %d", k, v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d v=%d: out[%d] = %d, want %d", k, v, i, got[i], want[i])
				}
			}
			gotIn := len(g.KHopInScratch(v, k, s))
			if wantIn := len(khopReference(g, v, k, false)); gotIn != wantIn {
				t.Fatalf("k=%d v=%d: in count %d != %d", k, v, gotIn, wantIn)
			}
		}
	}
}

func TestKHopConvenienceUsesScratch(t *testing.T) {
	g := randomGraph(200, 4, 5)
	for v := ID(0); v < 20; v++ {
		if got, want := g.KHopOutCount(v, 2), len(g.KHopOut(v, 2)); got != want {
			t.Fatalf("v=%d: count %d != len %d", v, got, want)
		}
	}
}

func TestImportanceAllParallelMatchesSequential(t *testing.T) {
	g := randomGraph(250, 3, 7)
	seq := g.ImportanceAllParallel(2, 1)
	for _, workers := range []int{2, 4, 9, 1000} {
		par := g.ImportanceAllParallel(2, workers)
		for v := range seq {
			if seq[v] != par[v] {
				t.Fatalf("workers=%d v=%d: %f != %f", workers, v, par[v], seq[v])
			}
		}
	}
	// And against the single-vertex path.
	for v := ID(0); v < 25; v++ {
		if got := g.Importance(v, 2); got != seq[v] {
			t.Fatalf("Importance(%d) = %f, want %f", v, got, seq[v])
		}
	}
}

// TestScratchConcurrent drives the pooled-scratch BFS and the parallel
// importance sweep from many goroutines at once; run with -race.
func TestScratchConcurrent(t *testing.T) {
	g := randomGraph(400, 4, 3)
	want := g.ImportanceAllParallel(2, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				v := ID(rng.Intn(g.NumVertices()))
				if got := g.Importance(v, 2); got != want[v] {
					t.Errorf("concurrent Importance(%d) = %f, want %f", v, got, want[v])
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			par := g.ImportanceAllParallel(2, 4)
			for v := range want {
				if par[v] != want[v] {
					t.Errorf("concurrent sweep v=%d: %f != %f", v, par[v], want[v])
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestScratchSteadyStateAllocFree(t *testing.T) {
	g := randomGraph(500, 6, 1)
	s := NewScratch(g)
	// Warm the buffers to steady-state size.
	for v := ID(0); v < 100; v++ {
		g.KHopOutScratch(v, 2, s)
	}
	allocs := testing.AllocsPerRun(200, func() {
		g.KHopOutScratch(7, 2, s)
		g.ImportanceScratch(7, 2, s)
	})
	if allocs > 0 {
		t.Fatalf("steady-state scratch BFS allocates %.1f allocs/op, want 0", allocs)
	}
}
