package serve

import (
	"math/rand"
	"sync"
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
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: n, EdgeType: 0})
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
	srv := New(tr, cl, Config{FlushWindow: 100 * time.Microsecond, MaxBatch: 8, MaxLag: 3, EdgeType: 0})
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

// TestServeRevalidation: out-of-band churn (updates applied directly to a
// shard, never routed through the tier) ages the whole cache past its lag
// budget; one refresher pass restores every entry whose dependencies are
// provably untouched via row-level Since proofs — no recomputation — while
// the touched vertex's entry stays stale and re-embeds on demand.
func TestServeRevalidation(t *testing.T) {
	const n = 48
	servers, cl, tr := clusterFixture(t, n)
	srv := New(tr, cl, Config{FlushWindow: 200 * time.Microsecond, MaxBatch: 1, MaxLag: 2, RefreshBudget: n, EdgeType: 0})
	defer srv.Close()

	all := make([]graph.ID, n)
	for i := range all {
		all[i] = graph.ID(i)
	}
	deps := make(map[graph.ID][]graph.ID)
	for _, v := range all {
		for vv, ds := range directDeps(t, tr, []graph.ID{v}) {
			deps[vv] = ds
		}
		if _, err := srv.Embed(v); err != nil {
			t.Fatal(err)
		}
	}

	// Choose w with at least one dependent, and a vertex a independent of w.
	var w, a graph.ID
	depOf := func(u, v graph.ID) bool {
		for _, d := range deps[v] {
			if d == u {
				return true
			}
		}
		return false
	}
	w = deps[0][len(deps[0])-1]
	for a = 0; a < n; a++ {
		if !depOf(w, a) {
			break
		}
	}

	// Three out-of-band rounds touching only w: heads advance past MaxLag=2
	// but the covered frontier stalls (the tier never saw the touched sets).
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

	srv.refreshOnce()
	st := srv.Stats()
	if st.Revalidated == 0 {
		t.Fatalf("refresher revalidated nothing: %+v", st)
	}

	// a's entry was restored by proof: serving it is a hit, not a recompute.
	before := srv.Stats()
	if _, err := srv.Embed(a); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Embedded != before.Embedded || after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("independent vertex %d was not served from the revalidated cache: %+v -> %+v", a, before, after)
	}

	// w's entry cannot be revalidated (its own adjacency moved): a lookup
	// re-embeds it to the post-churn value.
	got, err := srv.Embed(w)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tr.EmbedCtx([]graph.ID{w})
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(got, rowOf(want, 0)) {
		t.Fatalf("touched vertex %d served %v, want recomputed %v", w, got, rowOf(want, 0))
	}
	if final := srv.Stats(); final.Embedded != after.Embedded+1 {
		t.Fatalf("touched vertex was served stale instead of re-embedding: %+v", final)
	}
}
