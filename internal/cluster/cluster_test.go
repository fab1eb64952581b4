package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// powerLawTestGraph builds a small preferential-attachment graph whose hubs
// dominate traffic, the regime the importance cache targets.
func powerLawTestGraph(n int) *graph.Graph {
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
	return b.Finalize()
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	s := graph.MustSchema([]string{"user", "item"}, []string{"click", "buy"})
	b := graph.NewBuilder(s, true)
	// 4 users, 4 items; user u clicks items u and u+1 mod 4, buys item u.
	for i := 0; i < 4; i++ {
		b.AddVertex(0, []float64{float64(i)})
	}
	for i := 0; i < 4; i++ {
		b.AddVertex(1, []float64{float64(100 + i)})
	}
	for u := graph.ID(0); u < 4; u++ {
		b.AddEdge(u, 4+u, 0, 1)
		b.AddEdge(u, 4+(u+1)%4, 0, 1)
		b.AddEdge(u, 4+u, 1, 1)
	}
	return b.Finalize()
}

func setup(t *testing.T, cache storage.NeighborCache) (*Client, *LocalTransport, *graph.Graph) {
	t.Helper()
	g := testGraph(t)
	a, err := partition.HashPartitioner{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	return NewClient(a, tr, cache), tr, g
}

func TestServerOwnership(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	totalV, totalE := 0, 0
	for _, s := range servers {
		totalV += s.NumLocalVertices()
		totalE += s.NumLocalEdges()
	}
	if totalV != g.NumVertices() {
		t.Fatalf("vertices: %d want %d", totalV, g.NumVertices())
	}
	if totalE != 12 {
		t.Fatalf("edges: %d", totalE)
	}
	// A server must reject vertices it does not own.
	err := servers[0].ServeSampleNeighbors(SampleRequest{Vertices: []graph.ID{1}, EdgeType: 0, Width: 1}, &SampleReply{})
	if err == nil {
		t.Fatal("server 0 should not own odd vertices under hash partition")
	}
}

// localDraws is what a SampleBatch of vs must return: the same
// vertex-keyed draws from g itself.
func localDraws(t *testing.T, g *graph.Graph, vs []graph.ID, et graph.EdgeType, width int, seed uint64) []graph.ID {
	t.Helper()
	want := make([]graph.ID, len(vs)*width)
	if err := sampling.NewGraphSource(g).SampleBatch(want, vs, et, width, seed); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestClientBatchStitching(t *testing.T) {
	c, tr, g := setup(t, nil)
	vs := []graph.ID{0, 1, 2, 3}
	got := make([]graph.ID, 3*len(vs))
	if err := c.SampleBatch(got, vs, 0, 3, 7); err != nil {
		t.Fatal(err)
	}
	if want := localDraws(t, g, vs, 0, 3, 7); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stitched draws %v, want %v", got, want)
	}
	// Sub-batching: 4 vertices over 2 partitions must cost exactly 2 calls,
	// one of them local (home=0).
	local, remote := tr.Calls()
	if local != 1 || remote != 1 {
		t.Fatalf("calls = local %d remote %d, want 1/1", local, remote)
	}
}

func TestClientAttrs(t *testing.T) {
	c, _, g := setup(t, nil)
	attrs, err := c.Attrs([]graph.ID{3, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []graph.ID{3, 4, 0} {
		want := g.VertexAttr(v)
		if len(attrs[i]) != len(want) || attrs[i][0] != want[0] {
			t.Fatalf("attr(%d) = %v want %v", v, attrs[i], want)
		}
	}
}

func TestClientCacheAvoidsRemoteCalls(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	cache := storage.NewLRUNeighborCache(64)
	c := NewClient(a, tr, cache)

	// Vertex 1 lives on server 1, and its click degree 2 fits width 2, so
	// the reply ships the whole list for the cache to admit.
	dst := make([]graph.ID, 2)
	if err := c.SampleBatch(dst, []graph.ID{1}, 0, 2, 7); err != nil { // remote
		t.Fatal(err)
	}
	_, remote1 := tr.Calls()
	if remote1 != 1 {
		t.Fatalf("first access should be remote, calls=%d", remote1)
	}
	if err := c.SampleBatch(dst, []graph.ID{1}, 0, 2, 8); err != nil { // now cached
		t.Fatal(err)
	}
	_, remote2 := tr.Calls()
	if remote2 != 1 {
		t.Fatalf("second access should hit cache, remote=%d", remote2)
	}
}

func TestBuildServersParallel(t *testing.T) {
	g := testGraph(t)
	vs, es := Extract(g)
	for _, workers := range []int{1, 2, 4} {
		servers, a := BuildServers(vs, es, BuildConfig{
			NumPartitions: 2,
			NumWorkers:    workers,
			NumEdgeTypes:  2,
			Assign:        func(v graph.ID) int { return int(v) % 2 },
		})
		totalE := 0
		for _, s := range servers {
			totalE += s.NumLocalEdges()
		}
		if totalE != len(es) {
			t.Fatalf("workers=%d edges=%d want %d", workers, totalE, len(es))
		}
		if a.P != 2 || len(a.Of) != g.NumVertices() {
			t.Fatalf("assignment: %+v", a)
		}
		// Every edge must be on the server owning its source.
		for _, e := range es {
			srv := servers[int(e.Src)%2]
			ns, _, ok := srv.Neighbors(e.Src, e.Type)
			if !ok {
				t.Fatalf("server missing source %d", e.Src)
			}
			found := false
			for _, u := range ns {
				if u == e.Dst {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) not found on owner", e.Src, e.Dst)
			}
		}
	}
}

func TestRPCTransport(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)

	addrs := make([]string, len(servers))
	var rpcServers []*RPCServer
	for i, s := range servers {
		rs, err := ServeRPC(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		rpcServers = append(rpcServers, rs)
		addrs[i] = rs.Addr()
	}

	tr, err := DialRPC(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	c := NewClient(a, tr, nil)
	vs := []graph.ID{0, 1}
	got := make([]graph.ID, 4*len(vs))
	if err := c.SampleBatch(got, vs, 0, 4, 7); err != nil {
		t.Fatal(err)
	}
	if want := localDraws(t, g, vs, 0, 4, 7); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rpc draws = %v want %v", got, want)
	}
	attrs, err := c.Attrs([]graph.ID{5})
	if err != nil {
		t.Fatal(err)
	}
	if attrs[0][0] != 101 {
		t.Fatalf("rpc attr = %v", attrs[0])
	}
	// Error path: unknown vertex partition index out of range.
	if err := tr.SampleNeighbors(9, SampleRequest{Width: 1}, &SampleReply{}); err == nil {
		t.Fatal("expected error for bad partition")
	}
}

func TestLocalTransportErrors(t *testing.T) {
	tr := NewLocalTransport(nil, 0, 0)
	if err := tr.SampleNeighbors(0, SampleRequest{Width: 1}, &SampleReply{}); err == nil {
		t.Fatal("expected error with no servers")
	}
}

func TestImportanceCacheCutsRemoteTraffic(t *testing.T) {
	// Power-law-ish graph split across 4 partitions: the importance cache
	// should cut remote calls versus no cache for [5,3] NEIGHBORHOOD
	// draws.
	g := powerLawTestGraph(300)
	a, _ := partition.HashPartitioner{}.Partition(g, 4)
	servers := FromGraph(g, a)

	count := func(cache storage.NeighborCache) int64 {
		tr := NewLocalTransport(servers, 0, 0)
		nbr := sampling.NewNeighborhood(NewClient(a, tr, cache), nil)
		var ctx sampling.Context
		rng := sampling.NewRng(1)
		for v := graph.ID(0); v < 50; v++ {
			if err := nbr.SampleInto(&ctx, 0, []graph.ID{v}, []int{5, 3}, rng); err != nil {
				t.Fatal(err)
			}
		}
		_, remote := tr.Calls()
		return remote
	}

	noCacheRemote := count(storage.NoCache{})
	impRemote := count(storage.NewImportanceCacheTopFraction(g, 2, 0.2))
	if impRemote >= noCacheRemote {
		t.Fatalf("importance cache did not reduce remote calls: %d vs %d", impRemote, noCacheRemote)
	}
}

func TestClientBatchedDistributedSampling(t *testing.T) {
	// NEIGHBORHOOD sampling over a live distributed client must produce
	// the same aligned context shape as the local path, populate it with
	// genuine neighbors, and — the point of the batch-first Source — cost
	// O(servers x hops) RPCs per mini-batch, not O(vertices).
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	client := NewClient(a, tr, storage.NewLRUNeighborCache(32))

	nbr := sampling.NewNeighborhood(client, rand.New(rand.NewSource(1)))
	ctx, err := nbr.Sample(0, []graph.ID{0, 1, 2}, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Layers[1]) != 9 || len(ctx.Layers[2]) != 18 {
		t.Fatalf("layer sizes %d %d", len(ctx.Layers[1]), len(ctx.Layers[2]))
	}
	for i, v := range ctx.Layers[0] {
		for _, u := range ctx.NeighborsOf(0, i) {
			if u != v && !g.HasEdge(v, u, 0) {
				t.Fatalf("%d -> %d is not an edge", v, u)
			}
		}
	}
	// 3 + 9 = 12 sampled vertices over 2 hops: the per-vertex path paid one
	// RPC each (minus cache hits); the batched path pays at most one
	// SampleNeighbors RPC per owning server per hop.
	local, remote := tr.Calls()
	if calls := local + remote; calls > int64(len(servers)*len(ctx.HopNums)) {
		t.Fatalf("mini-batch cost %d RPCs, want <= servers*hops = %d", calls, len(servers)*len(ctx.HopNums))
	}
}

func TestClientNegativePoolMatchesInDegrees(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	client := NewClient(a, NewLocalTransport(servers, 0, 0), nil)

	cands, counts, err := client.NegativePool(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[graph.ID]float64)
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.ID(v), 0); d > 0 {
			want[graph.ID(v)] = float64(d)
		}
	}
	if len(cands) != len(want) {
		t.Fatalf("pool size %d, want %d", len(cands), len(want))
	}
	for i, v := range cands {
		if counts[i] != want[v] {
			t.Fatalf("count(%d) = %v, want %v", v, counts[i], want[v])
		}
	}
}

func TestClientSampleEdges(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	client := NewClient(a, tr, nil)

	edges, err := client.SampleEdges(0, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 64 {
		t.Fatalf("got %d edges, want 64", len(edges))
	}
	for _, e := range edges {
		if !g.HasEdge(e.Src, e.Dst, 0) {
			t.Fatalf("sampled non-edge (%d,%d)", e.Src, e.Dst)
		}
	}
	// Cost: one Stats RPC per server (first call only) plus at most one
	// SampleEdges RPC per contributing server.
	local, remote := tr.Calls()
	if calls := local + remote; calls > 2*int64(len(servers)) {
		t.Fatalf("edge batch cost %d RPCs, want <= %d", calls, 2*len(servers))
	}
	// The sparser "buy" type still fills a batch from its 4 edges.
	if buys, err := client.SampleEdges(1, 8, 7); err != nil || len(buys) != 8 {
		t.Fatalf("buy edges: %d err %v", len(buys), err)
	}
}

// TestSampleBatchWarmsReplacingCache: low-degree uniform vertices come back
// from SampleNeighbors as full short lists, so an LRU cache fills up under a
// pure training workload and the next identical hop costs zero RPCs.
func TestSampleBatchWarmsReplacingCache(t *testing.T) {
	g := testGraph(t) // every user has click-degree 2 <= width 3
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	cache := storage.NewLRUNeighborCache(64)
	client := NewClient(a, tr, cache)

	dst := make([]graph.ID, 4*3)
	batch := []graph.ID{0, 1, 2, 3}
	if err := client.SampleBatch(dst, batch, 0, 3, 7); err != nil {
		t.Fatal(err)
	}
	if cache.CachedVertices() == 0 {
		t.Fatal("training hop did not warm the LRU cache")
	}
	tr.ResetCalls()
	if err := client.SampleBatch(dst, batch, 0, 3, 8); err != nil {
		t.Fatal(err)
	}
	if local, remote := tr.Calls(); local+remote != 0 {
		t.Fatalf("fully cached hop cost %d RPCs", local+remote)
	}
	for i, v := range batch {
		for _, u := range dst[i*3 : (i+1)*3] {
			if !g.HasEdge(v, u, 0) {
				t.Fatalf("%d -> %d is not an edge", v, u)
			}
		}
	}
}

// TestCacheKeyedByEdgeType: warming the cache with one edge type's
// neighbor lists must never serve them to a query about another type
// (regression: cache keys once omitted the edge type).
func TestCacheKeyedByEdgeType(t *testing.T) {
	g := testGraph(t) // click (0) and buy (1) edges from every user
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	client := NewClient(a, NewLocalTransport(servers, 0, 0), storage.NewLRUNeighborCache(64))

	dst := make([]graph.ID, 4)
	if err := client.SampleBatch(dst, []graph.ID{0}, 0, 4, 7); err != nil {
		t.Fatal(err)
	}
	if err := client.SampleBatch(dst, []graph.ID{0}, 1, 4, 7); err != nil {
		t.Fatal(err)
	}
	for _, u := range dst {
		if !g.HasEdge(0, u, 1) {
			t.Fatalf("0 -> %d is not a buy edge (cross-type cache pollution)", u)
		}
	}
	// The static importance cache must be type-keyed too.
	imp := storage.NewImportanceCacheTopFraction(g, 2, 1.0)
	for v := graph.ID(0); v < 4; v++ {
		for et := graph.EdgeType(0); et < 2; et++ {
			ns, kind := imp.Get(v, et, 0)
			if kind != storage.KindHit {
				t.Fatalf("vertex %d type %d not cached", v, et)
			}
			want := g.OutNeighbors(v, et)
			if len(ns) != len(want) {
				t.Fatalf("cached list(%d, type %d) = %v, want %v", v, et, ns, want)
			}
		}
	}
}

// TestSampleEdgesSeesDynamicInserts: cached zero edge counters are
// re-confirmed against live servers, so edges streamed in after the first
// (empty) TRAVERSE become visible without rebuilding the client.
func TestSampleEdgesSeesDynamicInserts(t *testing.T) {
	s := graph.MustSchema([]string{"v"}, []string{"click", "late"})
	b := graph.NewBuilder(s, true)
	b.AddVertices(0, 4)
	b.AddEdge(0, 1, 0, 1) // type "late" (1) starts empty
	g := b.Finalize()
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	client := NewClient(a, NewLocalTransport(servers, 0, 0), nil)

	if edges, err := client.SampleEdges(1, 4, 3); err != nil || len(edges) != 0 {
		t.Fatalf("empty type: %d edges, err %v", len(edges), err)
	}
	var reply UpdateReply
	if err := servers[0].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: 0, Dst: 2, Type: 1, Weight: 1}}}, &reply); err != nil {
		t.Fatal(err)
	}
	edges, err := client.SampleEdges(1, 4, 3)
	if err != nil || len(edges) != 4 {
		t.Fatalf("after insert: %d edges, err %v", len(edges), err)
	}
	for _, e := range edges {
		if e.Src != 0 || e.Dst != 2 {
			t.Fatalf("unexpected edge (%d,%d)", e.Src, e.Dst)
		}
	}
}

// TestClientConcurrentSharedCache shares one Client (and one static
// importance cache) across goroutines mixing NEIGHBORHOOD sampling, direct
// draw hops and edge sampling; run with -race to validate the concurrency
// contract of the batched client.
func TestClientConcurrentSharedCache(t *testing.T) {
	g := powerLawTestGraph(300)
	a, _ := partition.HashPartitioner{}.Partition(g, 4)
	servers := FromGraph(g, a)
	tr := NewLocalTransport(servers, 0, 0)
	client := NewClient(a, tr, storage.NewImportanceCacheTopFraction(g, 2, 0.3))
	nbr := sampling.NewNeighborhood(client, rand.New(rand.NewSource(1)))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var ctx sampling.Context
			rng := sampling.NewRng(seed)
			batch := []graph.ID{0, 1, graph.ID(seed % 300), graph.ID((seed * 7) % 300)}
			for i := 0; i < 30; i++ {
				if err := nbr.SampleInto(&ctx, 0, batch, []int{4, 2}, rng); err != nil {
					t.Errorf("SampleInto: %v", err)
					return
				}
				if err := client.SampleBatch(make([]graph.ID, 2*len(batch)), batch, 0, 2, rng.Uint64()); err != nil {
					t.Errorf("SampleBatch: %v", err)
					return
				}
				if _, err := client.SampleEdges(0, 16, rng.Uint64()); err != nil {
					t.Errorf("SampleEdges: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
