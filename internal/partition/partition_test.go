package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// twoClusters builds a graph with two dense communities joined by one edge;
// a good 2-way partitioner should cut only the bridge.
func twoClusters(size int) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), false)
	b.AddVertices(0, 2*size)
	for c := 0; c < 2; c++ {
		base := graph.ID(c * size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(base+graph.ID(i), base+graph.ID(j), 0, 1)
			}
		}
	}
	b.AddEdge(0, graph.ID(size), 0, 1) // bridge
	return b.Finalize()
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	b.AddVertices(0, n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), 0, 1)
	}
	return b.Finalize()
}

func TestHashPartitioner(t *testing.T) {
	g := randomGraph(1, 20, 50)
	a, err := HashPartitioner{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	for _, s := range sizes {
		if s != 5 {
			t.Fatalf("hash sizes = %v", sizes)
		}
	}
	if a.Imbalance() != 1.0 {
		t.Fatalf("imbalance = %f", a.Imbalance())
	}
}

func TestMetisCutsBridgeOnly(t *testing.T) {
	g := twoClusters(12)
	a, err := Metis{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cut := a.EdgeCut(g); cut > 3 {
		t.Fatalf("metis cut = %d, want near 1", cut)
	}
	if imb := a.Imbalance(); imb > 1.25 {
		t.Fatalf("metis imbalance = %f", imb)
	}
}

func TestMetisBeatsHashOnClustered(t *testing.T) {
	g := twoClusters(10)
	am, _ := Metis{}.Partition(g, 2)
	ah, _ := HashPartitioner{}.Partition(g, 2)
	if am.EdgeCut(g) >= ah.EdgeCut(g) {
		t.Fatalf("metis cut %d should beat hash cut %d", am.EdgeCut(g), ah.EdgeCut(g))
	}
}

// TestMetisDeterministic: repeated calls on one graph return one
// assignment, so a cluster built from a Metis partition is the same run to
// run.
func TestMetisDeterministic(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.05))
	first, err := Metis{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		a, err := Metis{}.Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Of, first.Of) {
			t.Fatalf("call %d: part sizes %v, call 1: %v", i+2, a.Sizes(), first.Sizes())
		}
	}
}

func TestMetisSinglePartition(t *testing.T) {
	g := randomGraph(2, 10, 20)
	a, err := Metis{}.Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCut(g) != 0 {
		t.Fatal("p=1 must have zero cut")
	}
}

func TestStreamingLDG(t *testing.T) {
	g := twoClusters(10)
	a, err := Streaming{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ah, _ := HashPartitioner{}.Partition(g, 2)
	if a.EdgeCut(g) >= ah.EdgeCut(g) {
		t.Fatalf("streaming cut %d should beat hash cut %d", a.EdgeCut(g), ah.EdgeCut(g))
	}
	if a.Imbalance() > 1.5 {
		t.Fatalf("streaming imbalance = %f", a.Imbalance())
	}
}

func TestEdgeCutGreedy(t *testing.T) {
	g := twoClusters(8)
	a, err := EdgeCutGreedy{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	if sizes[0]+sizes[1] != g.NumVertices() {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestVertexCutReplication(t *testing.T) {
	g := randomGraph(3, 50, 400)
	ea, err := VertexCut{}.PartitionEdges(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea.Of) != 400 {
		t.Fatalf("placed %d edges", len(ea.Of))
	}
	rf := ea.ReplicationFactor()
	if rf < 1.0 || rf > 4.0 {
		t.Fatalf("replication factor = %f", rf)
	}
	// Greedy vertex-cut should replicate less than random edge placement.
	sizes := ea.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 400 {
		t.Fatalf("edge sizes sum = %d", total)
	}
}

func TestGrid2D(t *testing.T) {
	g := randomGraph(4, 30, 200)
	ea, err := Grid2D{}.PartitionEdges(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea.Of) != 200 {
		t.Fatalf("placed %d edges", len(ea.Of))
	}
	// 2-D property: every vertex is replicated on at most r+c-1 workers.
	r, c := gridShape(4)
	max := r + c - 1
	for v, s := range ea.placed {
		if len(s) > max {
			t.Fatalf("vertex %d replicated on %d > %d workers", v, len(s), max)
		}
	}
}

func TestGridShape(t *testing.T) {
	cases := []struct{ p, r, c int }{
		{4, 2, 2}, {6, 2, 3}, {9, 3, 3}, {7, 1, 7}, {12, 3, 4},
	}
	for _, tc := range cases {
		r, c := gridShape(tc.p)
		if r != tc.r || c != tc.c {
			t.Fatalf("gridShape(%d) = %d,%d want %d,%d", tc.p, r, c, tc.r, tc.c)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"metis", "streaming", "hash", "edgecut"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ByName(%s) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown partitioner")
	}
}

func TestValidation(t *testing.T) {
	g := randomGraph(5, 5, 5)
	if _, err := (Metis{}).Partition(g, 0); err == nil {
		t.Fatal("p=0 must error")
	}
	empty := graph.NewBuilder(graph.SimpleSchema(), true).Finalize()
	if _, err := (Streaming{}).Partition(empty, 2); err == nil {
		t.Fatal("empty graph must error")
	}
}

// Property: every partitioner assigns every vertex to a valid partition and
// respects reasonable balance.
func TestQuickPartitionersValid(t *testing.T) {
	parts := []VertexPartitioner{HashPartitioner{}, Metis{}, Streaming{}, EdgeCutGreedy{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		g := randomGraph(seed, n, n*3)
		p := 2 + rng.Intn(4)
		for _, pt := range parts {
			a, err := pt.Partition(g, p)
			if err != nil {
				return false
			}
			if len(a.Of) != n {
				return false
			}
			for _, q := range a.Of {
				if q < 0 || q >= p {
					return false
				}
			}
			if a.Imbalance() > 3.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: cut fraction is within [0,1] and consistent with EdgeCut.
func TestQuickCutFraction(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 60)
		a, err := Metis{}.Partition(g, 3)
		if err != nil {
			return false
		}
		cf := a.CutFraction(g)
		return cf >= 0 && cf <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
