package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// clusterFixture builds a trained-enough GraphSAGE trainer whose sampling
// runs through an in-process two-shard cluster, plus the shard servers for
// out-of-band mutation.
func clusterFixture(tb testing.TB, n int) ([]*cluster.Server, *cluster.Client, *core.LinkTrainer) {
	return clusterFixtureT(tb, n, nil)
}

// clusterFixtureT is clusterFixture with the shard transport optionally
// wrapped (benchmarks inject per-RPC latency).
func clusterFixtureT(tb testing.TB, n int, wrap func(cluster.Caller) cluster.Transport) ([]*cluster.Server, *cluster.Client, *core.LinkTrainer) {
	tb.Helper()
	s := graph.MustSchema([]string{"v"}, []string{"rel"})
	b := graph.NewBuilder(s, true)
	for i := 0; i < n; i++ {
		b.AddVertex(0, []float64{float64(i), 1})
	}
	for v := 0; v < n; v++ {
		b.AddEdge(graph.ID(v), graph.ID((v+1)%n), 0, 1)
		b.AddEdge(graph.ID(v), graph.ID((v+7)%n), 0, 1)
	}
	g := b.Finalize()
	assign, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	servers := cluster.FromGraph(g, assign)
	local := cluster.NewLocalTransport(servers, 0, 0)
	var tp cluster.Transport = local
	if wrap != nil {
		tp = wrap(local)
	}
	cl := cluster.NewClient(assign, tp, nil)

	rng := rand.New(rand.NewSource(17))
	feat := core.NewTableFeatures("emb", n, 8, rng)
	enc := &core.Encoder{Features: feat, Materialize: true}
	in, dim, hops := feat.Dim(), 8, []int{3, 2}
	for k := range hops {
		enc.Agg = append(enc.Agg, operator.NewMeanAggregator("agg", in, dim, rng))
		act := nn.ActReLU
		if k == len(hops)-1 {
			act = nn.ActIdentity
		}
		enc.Comb = append(enc.Comb, operator.NewConcatCombinerAct("comb", in, dim, dim, act, rng))
		in = dim
	}
	cfg := core.DefaultTrainerConfig()
	cfg.HopNums = hops
	cfg.Batch = 8
	tr, err := core.NewLinkTrainerOver(core.NewLocalEnv(g, rng), cl, enc, cfg, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return servers, cl, tr
}

// directDeps computes the sampled dependency set of each vertex in vs,
// exactly as a serve flush over the same batch order would record it.
func directDeps(tb testing.TB, tr *core.LinkTrainer, vs []graph.ID) map[graph.ID][]graph.ID {
	tb.Helper()
	_, ctx, err := tr.EmbedCtx(vs)
	if err != nil {
		tb.Fatal(err)
	}
	deps := make(map[graph.ID][]graph.ID, len(vs))
	for i, v := range vs {
		deps[v] = depsOf(ctx, i, v)
	}
	return deps
}

func rowOf(m *tensor.Matrix, i int) []float64 {
	return append([]float64(nil), m.Row(i)...)
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeInvalidationScope: an update through the tier drops exactly the
// cached entries whose sampled dependency set contains the touched vertex —
// the cached k-hop in-neighborhood — asserted via cache-entry counts and
// per-vertex presence.
func TestServeInvalidationScope(t *testing.T) {
	const n = 48
	_, cl, tr := clusterFixture(t, n)
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: n})
	defer srv.Close()

	all := make([]graph.ID, n)
	for i := range all {
		all[i] = graph.ID(i)
	}
	if _, err := srv.EmbedBatch(all); err != nil {
		t.Fatal(err)
	}
	if srv.Cache().Len() != n {
		t.Fatalf("warm cache holds %d entries, want %d", srv.Cache().Len(), n)
	}

	// Predict the dependency sets from an identical direct batch (the
	// fixed-seed sampler makes it reproduce serve's flush exactly), pick a
	// touched vertex that several entries depend on.
	deps := directDeps(t, tr, all)
	var u graph.ID
	for _, d := range deps[0] {
		if d != 0 {
			u = d
			break
		}
	}
	expect := map[graph.ID]bool{}
	for v, ds := range deps {
		for _, d := range ds {
			if d == u {
				expect[v] = true
			}
		}
	}
	if len(expect) < 2 {
		t.Fatalf("test graph too sparse: only %d entries depend on %d", len(expect), u)
	}

	dropped, err := srv.ApplyUpdate([]cluster.RawEdge{{Src: u, Dst: (u + 11) % n, Type: 0, Weight: 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != len(expect) {
		t.Fatalf("update dropped %d entries, want exactly the %d dependents of %d", dropped, len(expect), u)
	}
	if got := srv.Cache().Len(); got != n-len(expect) {
		t.Fatalf("cache holds %d entries after invalidation, want %d", got, n-len(expect))
	}
	for v := graph.ID(0); v < n; v++ {
		if srv.Cache().Contains(v) == expect[v] {
			t.Fatalf("vertex %d cached=%v, want %v", v, expect[v], !expect[v])
		}
	}

	// Survivors are implicitly revalidated by the contiguous round: serving
	// one is a pure hit, no encoder work.
	var survivor graph.ID = 0
	for ; expect[survivor]; survivor++ {
	}
	before := srv.Stats()
	if _, err := srv.Embed(survivor); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Embedded != before.Embedded || after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("survivor lookup was not a cache hit: %+v -> %+v", before, after)
	}

	// The touched vertex re-embeds to its post-update value.
	got, err := srv.Embed(u)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tr.EmbedCtx([]graph.ID{u})
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(got, rowOf(want, 0)) {
		t.Fatalf("re-embedded %d = %v, want current %v", u, got, rowOf(want, 0))
	}
}

// TestServeChurnStormExactness hammers the tier with concurrent lookups
// while updates stream through ApplyUpdate, then asserts the strongest
// possible staleness property: because every round routed its touched set
// through the cache, any entry that survived is provably identical to a
// fresh recompute — so after the storm, every served embedding equals the
// trainer's direct single-vertex answer bit for bit. Eight concurrent
// callers and MaxBatch 8 make flushes coalesce lookups into mixed batches,
// so the comparison also holds the encoder to batch independence. Run with
// -race.
func TestServeChurnStormExactness(t *testing.T) {
	const n = 48
	_, cl, tr := clusterFixture(t, n)
	srv := New(tr, cl, Config{FlushWindow: 100 * time.Microsecond, MaxBatch: 8, MaxLag: 3})
	defer srv.Close()

	// Warm every vertex so the first churn rounds hit a full cache.
	for v := graph.ID(0); v < n; v++ {
		if _, err := srv.Embed(v); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.ID(rng.Intn(n))
				if _, err := srv.Embed(v); err != nil {
					t.Errorf("embed %d: %v", v, err)
					return
				}
			}
		}(int64(w + 1))
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		src := graph.ID(rng.Intn(n))
		add := []cluster.RawEdge{{Src: src, Dst: graph.ID(rng.Intn(n)), Type: 0, Weight: 1}}
		attrs := []cluster.AttrUpdate{{V: graph.ID(rng.Intn(n)), Attr: []float64{float64(round), 1}}}
		if _, err := srv.ApplyUpdate(add, nil, attrs); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond) // let lookups interleave with rounds
	}
	close(stop)
	wg.Wait()

	st := srv.Stats()
	if st.Invalidated == 0 {
		t.Fatal("churn storm invalidated nothing; updates are not reaching the cache")
	}
	if st.Cache.Hits == 0 {
		t.Fatal("churn storm had zero cache hits; scoped invalidation is not preserving entries")
	}
	for v := graph.ID(0); v < n; v++ {
		got, err := srv.Embed(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := tr.EmbedCtx([]graph.ID{v})
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(got, rowOf(want, 0)) {
			t.Fatalf("post-storm serve(%d) = %v, direct = %v: a stale entry was served", v, got, rowOf(want, 0))
		}
	}
}

// crossedUpdates delivers the first Update call to its shard but holds the
// reply until release is closed, so a later caller's update — reply and
// invalidation round — overtakes it.
type crossedUpdates struct {
	cluster.Transport
	calls   atomic.Int32
	applied chan struct{} // closed once the held update has been applied
	release chan struct{}
}

func (c *crossedUpdates) Update(part int, req cluster.UpdateRequest, reply *cluster.UpdateReply) error {
	err := c.Transport.Update(part, req, reply)
	if c.calls.Add(1) == 1 {
		close(c.applied)
		<-c.release
	}
	return err
}

// dependsOn reports whether u is in v's sampled dependency set.
func dependsOn(deps map[graph.ID][]graph.ID, v, u graph.ID) bool {
	for _, d := range deps[v] {
		if d == u {
			return true
		}
	}
	return false
}

// TestServeCrossedUpdateReplies: two callers' ApplyUpdates on one shard
// whose replies cross — the second update's invalidation round runs before
// the first's — must not stall the cache's frontier. After MaxLag+1 more
// in-band updates an entry none of them touched is still a pure cache hit:
// no encoder work and no stale rejection at any point.
func TestServeCrossedUpdateReplies(t *testing.T) {
	const n, maxLag = 48, 2
	cross := &crossedUpdates{applied: make(chan struct{}), release: make(chan struct{})}
	_, cl, tr := clusterFixtureT(t, n, func(inner cluster.Caller) cluster.Transport {
		cross.Transport = inner.(cluster.Transport)
		return cross
	})
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: n, MaxLag: maxLag})
	defer srv.Close()

	all := make([]graph.ID, n)
	for i := range all {
		all[i] = graph.ID(i)
	}
	deps := directDeps(t, tr, all)
	if _, err := srv.EmbedBatch(all); err != nil {
		t.Fatal(err)
	}
	// Every update rewrites u's adjacency; a does not depend on u.
	u := graph.ID(0)
	a := graph.ID(1)
	for ; a < n && dependsOn(deps, a, u); a++ {
	}
	if a == n {
		t.Fatal("every vertex depends on the touched vertex")
	}
	edge := func(i int) []cluster.RawEdge {
		return []cluster.RawEdge{{Src: u, Dst: graph.ID((int(u) + i + 2) % n), Type: 0, Weight: 1}}
	}

	first := make(chan error, 1)
	go func() {
		_, err := srv.ApplyUpdate(edge(0), nil, nil)
		first <- err
	}()
	<-cross.applied
	if _, err := srv.ApplyUpdate(edge(1), nil, nil); err != nil {
		t.Fatal(err)
	}
	close(cross.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 2+maxLag+1; i++ {
		if _, err := srv.ApplyUpdate(edge(i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	before := srv.Stats()
	if _, err := srv.Embed(a); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Embedded != before.Embedded || after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("untouched vertex %d was not a cache hit after crossed updates: %+v -> %+v", a, before, after)
	}
	if after.Cache.StaleRejects != 0 {
		t.Fatalf("%d stale rejects: the frontier stalled on the crossed replies", after.Cache.StaleRejects)
	}
}

// TestServeOutOfBandChurnExact: updates applied directly to a shard, never
// routed through the tier, leave a gap the cache's frontier cannot pass.
// Once they outnumber MaxLag, the lag bound forces recomputation, and both
// the touched vertex and an untouched one serve exactly what a fresh
// EmbedCtx returns, bit for bit.
func TestServeOutOfBandChurnExact(t *testing.T) {
	const n = 48
	servers, cl, tr := clusterFixture(t, n)
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: n, MaxLag: 2})
	defer srv.Close()

	all := make([]graph.ID, n)
	for i := range all {
		all[i] = graph.ID(i)
	}
	deps := directDeps(t, tr, all)
	if _, err := srv.EmbedBatch(all); err != nil {
		t.Fatal(err)
	}
	w := deps[0][len(deps[0])-1]
	var a graph.ID
	for ; a < n && dependsOn(deps, a, w); a++ {
	}

	// Three out-of-band rounds touching only w: heads pass MaxLag=2.
	p := cl.Assign.Part(w)
	for i := 0; i < 3; i++ {
		var ur cluster.UpdateReply
		err := servers[p].ServeUpdate(cluster.UpdateRequest{
			Add: []cluster.RawEdge{{Src: w, Dst: graph.ID(int(w)+i+2) % n, Type: 0, Weight: 1}},
		}, &ur)
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.refreshOnce() // the head probe observes the churn

	for _, v := range []graph.ID{w, a} {
		got, err := srv.Embed(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := tr.EmbedCtx([]graph.ID{v})
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(got, rowOf(want, 0)) {
			t.Fatalf("vertex %d served %v after out-of-band churn, a fresh embed gives %v", v, got, rowOf(want, 0))
		}
	}
	if st := srv.Stats(); st.Cache.StaleRejects == 0 {
		t.Fatalf("the lag bound rejected nothing after out-of-band churn: %+v", st)
	}
}

// TestServeNoOpUpdateLeavesGap: an in-band update that applies nothing
// makes no epoch; its reply carries the shard's current head, here an
// out-of-band epoch. That head must not count as covered, or w's entry —
// whose adjacency the out-of-band epoch rewrote — would read as current.
func TestServeNoOpUpdateLeavesGap(t *testing.T) {
	const n = 48
	servers, cl, tr := clusterFixture(t, n)
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: n})
	defer srv.Close()

	w := graph.ID(5)
	deps := directDeps(t, tr, []graph.ID{w})
	if _, err := srv.Embed(w); err != nil {
		t.Fatal(err)
	}
	p := cl.Assign.Part(w)
	var ur cluster.UpdateReply
	if err := servers[p].ServeUpdate(cluster.UpdateRequest{
		Add: []cluster.RawEdge{{Src: w, Dst: (w + 3) % n, Type: 0, Weight: 1}},
	}, &ur); err != nil {
		t.Fatal(err)
	}
	// Removing an edge that x (on w's shard, not among w's dependencies)
	// does not have applies nothing.
	x := graph.ID(0)
	for ; x < n && (cl.Assign.Part(x) != p || dependsOn(deps, w, x)); x++ {
	}
	if x == n {
		t.Fatal("no vertex on w's shard outside w's dependencies")
	}
	absent := []cluster.RawEdge{{Src: x, Dst: (x + 5) % n, Type: 0, Weight: 1}}
	if _, err := srv.ApplyUpdate(nil, absent, nil); err != nil {
		t.Fatal(err)
	}
	srv.refreshOnce()
	if _, ok := srv.Cache().Get(w, 0); ok {
		t.Fatal("an out-of-band epoch counted as covered after a no-op in-band update")
	}
}
