package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// newHopCluster wires a client over fresh servers for g with a
// caller-chosen shard count, transport layer and neighbor cache.
func newHopCluster(t *testing.T, g *graph.Graph, shards int, wrap func(Caller) Transport, cache storage.NeighborCache) *Client {
	t.Helper()
	a, err := (partition.HashPartitioner{}).Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	var tr Transport = NewLocalTransport(FromGraph(g, a))
	if wrap != nil {
		tr = wrap(tr.(Caller))
	}
	return NewClient(a, tr, cache)
}

// TestCacheMatrixBitIdentical is the slot-purity guard: a fixed-seed
// depth-4 pipelined training run must produce bit-identical losses with no
// neighbor cache, a replacing LRU and a static importance cache, on both a
// 1-shard and a 2-shard cluster. A cache may only change where a draw
// executes (client-side from a cached list, or on the server), never its
// value. Run with -race: three prefetch workers share the cache.
func TestCacheMatrixBitIdentical(t *testing.T) {
	const steps = 24
	g := churnTestGraph(200)
	caches := []struct {
		name string
		mk   func() storage.NeighborCache
	}{
		{"none", func() storage.NeighborCache { return storage.NoCache{} }},
		{"lru", func() storage.NeighborCache { return storage.NewLRUNeighborCache(256) }},
		{"importance", func() storage.NeighborCache { return storage.NewImportanceCacheTopFraction(g, 2, 0.2) }},
	}

	run := func(shards int, cache storage.NeighborCache) ([]float64, int64) {
		t.Helper()
		c := newHopCluster(t, g, shards, nil, cache)
		rng := rand.New(rand.NewSource(42))
		enc := churnEncoder(g.NumVertices(), []int{3, 2}, rng)
		cfg := core.TrainerConfig{EdgeType: 0, HopNums: []int{3, 2}, Batch: 16, NegK: 2, LR: 0.05}
		trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, enc, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
		trn.SetSource(pl)
		defer pl.Close()
		losses := make([]float64, 0, steps)
		for i := 0; i < steps; i++ {
			mb, err := pl.Next()
			if err != nil {
				t.Fatal(err)
			}
			l, err := trn.Step(mb)
			if err != nil {
				t.Fatal(err)
			}
			pl.Recycle(mb)
			losses = append(losses, l)
		}
		var hits int64
		for _, hm := range c.Metrics().Hops {
			hits += hm.CacheHits
		}
		return losses, hits
	}

	// Loss curves are compared within a topology only: TRAVERSE splits
	// (and therefore negative pools) legitimately differ across shard
	// counts.
	for _, shards := range []int{1, 2} {
		want, _ := run(shards, caches[0].mk())
		for _, cc := range caches[1:] {
			got, hits := run(shards, cc.mk())
			if hits == 0 {
				t.Fatalf("shards=%d cache=%s: no cache hits, the matrix would prove nothing", shards, cc.name)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d cache=%s step %d: loss %g != no-cache %g", shards, cc.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStaticCacheServesFetchedLists: a static cache hit must draw exactly
// what the server would — the cached list is the adjacency list with its
// duplicate edges — so cached draws equal fetched draws for every vertex,
// and a fully cached client makes no RPC.
func TestStaticCacheServesFetchedLists(t *testing.T) {
	g := churnTestGraph(120)
	dup := false
	for v := 0; v < g.NumVertices() && !dup; v++ {
		seen := map[graph.ID]bool{}
		for _, u := range g.OutNeighbors(graph.ID(v), 0) {
			dup = dup || seen[u]
			seen[u] = true
		}
	}
	if !dup {
		t.Fatal("graph has no duplicate edges; the test would prove nothing")
	}
	fetch := newHopCluster(t, g, 2, nil, storage.NoCache{})
	cached := newHopCluster(t, g, 2, nil, storage.NewImportanceCacheTopFraction(g, 2, 1.0))
	vs := make([]graph.ID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.ID(i)
	}
	const width = 5
	want := make([]graph.ID, len(vs)*width)
	got := make([]graph.ID, len(vs)*width)
	if err := fetch.SampleBatch(want, vs, 0, width, 7); err != nil {
		t.Fatal(err)
	}
	if err := cached.SampleBatch(got, vs, 0, width, 7); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		cd, fd := got[int(v)*width:int(v+1)*width], want[int(v)*width:int(v+1)*width]
		if fmt.Sprint(cd) != fmt.Sprint(fd) {
			t.Fatalf("vertex %d: cached draws %v, fetched %v", v, cd, fd)
		}
	}
	if m := cached.Metrics(); m.RPCs != 0 {
		t.Fatalf("fully cached reads made %d RPCs", m.RPCs)
	}
}

// truncating answers every call through inner, then drops the last row of
// the reply to method m — or, with since set, the last install stamp of a
// SampleReply's Since array, or with lists set, the last full list a
// SampleReply carries — a server bug the client must turn into an error.
type truncating struct {
	Caller
	m            Method
	since, lists bool
}

func (c truncating) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if err := c.Caller.Call(ctx, part, m, req, reply); err != nil || m != c.m {
		return err
	}
	if r, ok := reply.(*SampleReply); ok && c.lists {
		if len(r.Lists) > 0 {
			r.Lists = r.Lists[:len(r.Lists)-1]
		}
		return nil
	}
	if r, ok := reply.(*SampleReply); ok && c.since {
		r.Since = r.Since[:len(r.Since)-1]
		return nil
	}
	switch r := reply.(type) {
	case *AttrsReply:
		if r.Attrs.Codes != nil {
			r.Attrs.Codes = r.Attrs.Codes[:len(r.Attrs.Codes)-1]
		} else {
			r.Attrs.Raw = r.Attrs.Raw[:len(r.Attrs.Raw)-1]
		}
	case *EdgesReply:
		r.Dst = r.Dst[:len(r.Dst)-1]
	case *NegPoolReply:
		r.Counts = r.Counts[:len(r.Counts)-1]
	case *SampleReply:
		r.Samples = r.Samples[:len(r.Samples)-1]
	}
	return nil
}

// TestShortRepliesError: a reply with fewer rows than its request, or
// with fewer install stamps (Since) than the rows it carries, must surface
// as an error naming the server, never as an index panic or a row admitted
// without its stamp.
func TestShortRepliesError(t *testing.T) {
	g := churnTestGraph(60)
	vs := []graph.ID{0, 1, 2, 3, 4, 5, 6, 7}
	lru := func() storage.NeighborCache { return storage.NewLRUNeighborCache(64) }
	// An admitting cache makes the server ship short lists: width 3 covers
	// every vertex here, width 2 mixes lists with drawn rows, and [3,3]
	// NEIGHBORHOOD draws expand the batch over two hops.
	hop := func(width int) func(c *Client) error {
		return func(c *Client) error { return c.SampleBatch(make([]graph.ID, width*len(vs)), vs, 0, width, 1) }
	}
	neighborhood := func(c *Client) error {
		var ctx sampling.Context
		return sampling.NewNeighborhood(c, nil).SampleInto(&ctx, 0, vs, []int{3, 3}, sampling.NewRng(1))
	}
	cases := []struct {
		m            Method
		call         func(c *Client) error
		since, lists bool
		cache        func() storage.NeighborCache
	}{
		{m: MSampleNeighbors, call: hop(3), lists: true, cache: lru},
		{m: MSampleNeighbors, call: neighborhood, lists: true, cache: lru},
		{m: MAttrs, call: func(c *Client) error { _, err := c.Attrs(vs); return err }},
		{m: MAttrs, call: func(c *Client) error {
			pin, err := c.Pin()
			if err != nil {
				return err
			}
			defer c.Unpin(pin)
			_, err = c.AttrsAt(vs, pin)
			return err
		}},
		{m: MSampleEdges, call: func(c *Client) error { _, err := c.SampleEdges(0, 16, 1); return err }},
		{m: MNegativePool, call: func(c *Client) error { _, _, err := c.NegativePool(0); return err }},
		{m: MSampleNeighbors, call: func(c *Client) error { return c.SampleBatch(make([]graph.ID, 2*len(vs)), vs, 0, 2, 1) }},
		{m: MSampleNeighbors, call: hop(2), since: true, cache: lru},
		{m: MSampleNeighbors, call: neighborhood, since: true, cache: lru},
		{m: MSampleNeighbors, call: hop(3), since: true, cache: lru},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("%d-%v", i, tc.m), func(t *testing.T) {
			var cache storage.NeighborCache = storage.NoCache{}
			if tc.cache != nil {
				cache = tc.cache()
			}
			c := newHopCluster(t, g, 2, func(inner Caller) Transport { return typed(truncating{inner, tc.m, tc.since, tc.lists}) }, cache)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("short %v reply panicked: %v", tc.m, p)
				}
			}()
			if err := tc.call(c); err == nil {
				t.Fatalf("short %v reply accepted", tc.m)
			}
		})
	}
}

// downShard fails every call to one shard as a shard-down error while down
// is set.
type downShard struct {
	Caller
	part int
	down *bool
}

func (c downShard) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if *c.down && part == c.part {
		return &ShardDownError{Part: part, Err: ErrUnreachable}
	}
	return c.Caller.Call(ctx, part, m, req, reply)
}

// TestNeighborsFailsOnDownShard: a draw hop over a vertex whose shard is
// down reports the failure. A cached list no longer valid at the client's
// epoch is not drawn from in its place.
func TestNeighborsFailsOnDownShard(t *testing.T) {
	g := churnTestGraph(60)
	down := false
	c := newHopCluster(t, g, 2, func(inner Caller) Transport { return typed(downShard{inner, 1, &down}) }, storage.NewLRUNeighborCache(64))
	var v graph.ID = -1
	for u := 0; u < g.NumVertices(); u++ {
		if c.Assign.Part(graph.ID(u)) == 1 && len(g.OutNeighbors(graph.ID(u), 0)) > 0 {
			v = graph.ID(u)
			break
		}
	}
	if v < 0 {
		t.Fatal("no vertex with out-edges on shard 1")
	}
	// Width 3 covers every degree here, so the first hop admits v's list.
	dst := make([]graph.ID, 3)
	if err := c.SampleBatch(dst, []graph.ID{v}, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	// Move the client's head past the cached entry so the probe misses and
	// the read must go to the (down) shard.
	c.pins.noteHead(1, 5)
	down = true
	if err := c.SampleBatch(dst, []graph.ID{v}, 0, 3, 1); !IsShardDown(err) {
		t.Fatalf("SampleBatch on a down shard = %v; want shard down", err)
	}
}

// skewTestGraph builds a two-lane workload graph: type 0 ("hot") edges
// among a small hub set that every round resamples, type 1 ("cold") edges
// among a long tail each touched once.
func skewTestGraph(nHot, nCold int) *graph.Graph {
	s := graph.MustSchema([]string{"v"}, []string{"hot", "cold"})
	b := graph.NewBuilder(s, true)
	n := nHot + nCold
	for i := 0; i < n; i++ {
		b.AddVertex(0, []float64{float64(i), 1})
	}
	for v := 0; v < nHot; v++ {
		for e := 1; e <= 4; e++ {
			b.AddEdge(graph.ID(v), graph.ID((v+e)%nHot), 0, 1)
		}
	}
	for v := nHot; v < n; v++ {
		for e := 1; e <= 4; e++ {
			b.AddEdge(graph.ID(v), graph.ID(nHot+(v-nHot+e)%nCold), 1, 1)
		}
	}
	return b.Finalize()
}
