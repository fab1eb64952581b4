package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/version"
)

// TestCacheEpochKeyedUnderUpdate: the neighbor cache is version-keyed end
// to end — an entry fetched at one epoch must not serve a pinned read at a
// later one (a touched vertex would be stale), and a re-validating fetch
// restores the hit for the new epoch.
func TestCacheEpochKeyedUnderUpdate(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	cache := storage.NewLRUNeighborCache(64)
	c := NewClient(a, NewLocalTransport(servers, 0), cache)

	pin1, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	view := c.EpochView()
	view.SetPin(pin1)
	batch := []graph.ID{0, 2}
	dst := make([]graph.ID, len(batch)*3)
	if err := view.SampleBatch(dst, batch, 0, 3, 7); err != nil {
		t.Fatal(err)
	}
	// Click degree 2 <= width 3: both lists were shipped short and admitted
	// at epoch 0.
	if _, kind := cache.Get(0, 0, 0); kind != storage.KindHit {
		t.Fatal("warm-up did not admit vertex 0 at epoch 0")
	}

	// Rewrite vertex 0's click list on its owning shard (epoch 1 there).
	var reply UpdateReply
	if err := servers[0].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: 0, Dst: 6, Type: 0, Weight: 1}}}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("update epoch = %d", reply.Epoch)
	}

	// The epoch-0 entry must not answer an epoch-1 read.
	if _, kind := cache.Get(0, 0, 1); kind == storage.KindHit {
		t.Fatal("stale epoch-0 neighbor list served for an epoch-1 read")
	}

	// Let the client observe the new head, then pin the post-update
	// snapshot and re-sample: the cache must re-fetch, not serve stale.
	c.Unpin(pin1)
	if _, err := c.ProbeHeads(); err != nil {
		t.Fatal(err)
	}
	pin2, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(pin2)
	if pin2.Epochs[0] != 1 {
		t.Fatalf("re-pin epochs = %v, want shard 0 at 1", pin2.Epochs)
	}
	view.SetPin(pin2)
	dst2 := make([]graph.ID, len(batch)*4)
	if err := view.SampleBatch(dst2, batch, 0, 4, 8); err != nil {
		t.Fatal(err)
	}
	// Vertex 0's fresh entry is the rewritten 3-neighbor list...
	ns, kind := cache.Get(0, 0, 1)
	if kind != storage.KindHit || len(ns) != 3 {
		t.Fatalf("post-update entry = %v kind=%v, want rewritten 3-list", ns, kind)
	}
	// ...and the untouched vertex 2 was cheaply re-validated, not replaced.
	if _, kind := cache.Get(2, 0, 1); kind != storage.KindHit {
		t.Fatal("untouched vertex not re-validated at the new epoch")
	}
	if _, _, epochMisses := cache.Counters(); epochMisses == 0 {
		t.Fatal("epoch misses not counted across the update")
	}
	// Draw validity at the pinned epoch.
	for i, v := range batch {
		for _, u := range dst2[i*4 : (i+1)*4] {
			if v == 0 && u == 6 {
				continue // the dynamically inserted edge
			}
			if !g.HasEdge(v, u, 0) {
				t.Fatalf("%d -> %d is not an edge at the pinned epoch", v, u)
			}
		}
	}
}

// TestPinnedTraverseSplitUsesPinnedStats: the cross-server TRAVERSE split
// of a pinned batch must come from the pinned epoch's edge counters (they
// ride the Lease reply), not the moving head's — otherwise a shard that
// grew after the pin would be asked for edges its pinned snapshot does not
// have, and the batch would come back short.
func TestPinnedTraverseSplitUsesPinnedStats(t *testing.T) {
	s := graph.MustSchema([]string{"v"}, []string{"e"})
	b := graph.NewBuilder(s, true)
	b.AddVertices(0, 8)
	for v := graph.ID(0); v < 8; v += 2 {
		b.AddEdge(v, v+1, 0, 1) // all epoch-0 edges live on even vertices (shard 0)
	}
	g := b.Finalize()
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers, 0), storage.NoCache{})

	pin, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(pin)

	// Shard 1 grows 50 edges AFTER the pin; the head stats now say it holds
	// nearly all the mass.
	for i := 0; i < 50; i++ {
		var reply UpdateReply
		req := UpdateRequest{Add: []RawEdge{{Src: graph.ID(1 + 2*(i%4)), Dst: graph.ID(i % 8), Type: 0, Weight: 1}}}
		if err := servers[1].ServeUpdate(req, &reply); err != nil {
			t.Fatal(err)
		}
	}

	var span sampling.EpochSpan
	edges, err := c.AppendSampleEdges(nil, 0, 32, 7, pin, &span)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 32 {
		t.Fatalf("pinned TRAVERSE returned %d/32 edges (head-stats split starved the batch)", len(edges))
	}
	for _, e := range edges {
		if e.Src%2 != 0 {
			t.Fatalf("pinned batch drew post-pin edge (%d,%d)", e.Src, e.Dst)
		}
	}
	if span.Mixed() {
		t.Fatalf("pinned batch span mixed: %+v", span)
	}
}

// TestPinnedDrawsSurviveCompaction: pinned SampleNeighbors and SampleEdges
// requests answer bit-identically before and after a compaction folds the
// drawn vertices' overlay lists into the base. A neighbour draw indexes the
// served list with the vertex's stream; an edge draw takes the edge at a
// uniform rank in (vertex ID, list position) order. The fold keeps every
// list and its order, so moving lists from overlay to base moves no draw.
func TestPinnedDrawsSurviveCompaction(t *testing.T) {
	g := powerLawTestGraph(200)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]
	const v = graph.ID(5)
	update := func(add ...RawEdge) {
		t.Helper()
		if err := srv.ServeUpdate(UpdateRequest{Add: add}, &UpdateReply{}); err != nil {
			t.Fatal(err)
		}
	}
	update(RawEdge{Src: v, Dst: 7, Weight: 3}, RawEdge{Src: v, Dst: 11, Weight: 0.5})
	for i := 0; i < 20; i++ {
		update(RawEdge{Src: graph.ID(20 + i), Dst: graph.ID(100 + i), Weight: 1})
	}
	var lease LeaseReply
	if err := srv.ServeLease(LeaseRequest{}, &lease); err != nil {
		t.Fatal(err)
	}
	req := SampleRequest{
		Vertices: []graph.ID{v},
		Width:    32,
		Seed:     42,
		Pin:      lease.Epoch,
		Pinned:   true,
	}
	touched := func() bool {
		t.Helper()
		view, err := srv.store.At(lease.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		return view.Touched(v, 0)
	}
	ereq := EdgesRequest{Count: 64, Seed: 42, Pin: lease.Epoch, Pinned: true}
	var before, after SampleReply
	var ebefore, eafter EdgesReply
	if err := srv.ServeSampleNeighbors(req, &before); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeSampleEdges(ereq, &ebefore); err != nil {
		t.Fatal(err)
	}
	if !touched() {
		t.Fatal("vertex not served from an overlay before the fold")
	}
	var cr CompactReply
	if err := srv.ServeCompact(CompactRequest{}, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.BaseEpoch == 0 {
		t.Fatal("compaction folded nothing")
	}
	if touched() {
		t.Fatal("vertex still served from an overlay after the fold")
	}
	if err := srv.ServeSampleNeighbors(req, &after); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeSampleEdges(ereq, &eafter); err != nil {
		t.Fatal(err)
	}
	if len(before.Samples) != 32 || len(after.Samples) != 32 {
		t.Fatalf("drew %d and %d samples, want 32", len(before.Samples), len(after.Samples))
	}
	for i := range before.Samples {
		if before.Samples[i] != after.Samples[i] {
			t.Fatalf("draw %d moved across the fold: %d -> %d\nbefore %v\nafter  %v", i, before.Samples[i], after.Samples[i], before.Samples, after.Samples)
		}
	}
	if len(ebefore.Src) != 64 || len(eafter.Src) != 64 {
		t.Fatalf("drew %d and %d edges, want 64", len(ebefore.Src), len(eafter.Src))
	}
	moved := 0
	for i := range ebefore.Src {
		if ebefore.Src[i] != eafter.Src[i] || ebefore.Dst[i] != eafter.Dst[i] {
			moved++
		}
	}
	if moved > 0 {
		t.Fatalf("%d of 64 pinned edge draws moved across the fold\nbefore %v -> %v\nafter  %v -> %v", moved, ebefore.Src, ebefore.Dst, eafter.Src, eafter.Dst)
	}
}

// TestPipelineLRUMatchesDepth0Cluster: depth-4 pipelined training over a
// cluster with a replacing LRU neighbor cache produces losses bit-identical
// to depth 0 — the PR 3 "statistical match only" caveat upgraded to an
// invariant. Draws are vertex-keyed, so cache warm-up timing and admission
// order across pipeline workers cannot perturb the values.
func TestPipelineLRUMatchesDepth0Cluster(t *testing.T) {
	g := churnTestGraph(200)
	lru := func([]*Server, *partition.Assignment) storage.NeighborCache {
		return storage.NewLRUNeighborCache(128)
	}

	base, _ := newChurnTrainerCache(t, g, 42, lru)
	want, err := base.Train(25)
	if err != nil {
		t.Fatal(err)
	}

	trn, _ := newChurnTrainerCache(t, g, 42, lru)
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
	trn.SetSource(pl)
	got, err := trn.Train(25)
	if cerr := pl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: depth-4 LRU loss %g != depth-0 LRU loss %g", i, got[i], want[i])
		}
	}
}

// verifyingLRU wraps an LRU neighbor cache and cross-checks every hit
// against the owning server's snapshot store at the epoch the lookup
// was keyed by: if the cache ever serves a list that differs from the
// store's adjacency at that exact epoch, a pinned batch consumed a
// stale-generation list and the test fails.
type verifyingLRU struct {
	*storage.LRUNeighborCache
	t       *testing.T
	servers []*Server
	assign  *partition.Assignment
	checked atomic.Int64
}

func (v *verifyingLRU) Get(x graph.ID, et graph.EdgeType, epoch uint64) ([]graph.ID, storage.GetKind) {
	ns, kind := v.LRUNeighborCache.Get(x, et, epoch)
	if kind == storage.KindHit {
		srv := v.servers[v.assign.Part(x)]
		view, err := srv.Store().At(epoch)
		switch {
		case version.IsUnavailable(err):
			// The epoch fell out between lookup and check; nothing to verify.
		case err != nil:
			v.t.Errorf("verify At(%d): %v", epoch, err)
		default:
			want, okv := view.Neighbors(x, et)
			if !okv {
				v.t.Errorf("verify: server does not own %d", x)
				return ns, kind
			}
			if len(ns) != len(want) {
				v.t.Errorf("STALE CACHE: vertex %d type %d epoch %d: cached %v, store %v", x, et, epoch, ns, want)
				return ns, kind
			}
			for i := range want {
				if ns[i] != want[i] {
					v.t.Errorf("STALE CACHE: vertex %d type %d epoch %d: cached %v, store %v", x, et, epoch, ns, want)
					return ns, kind
				}
			}
			v.checked.Add(1)
		}
	}
	return ns, kind
}

func (v *verifyingLRU) Name() string { return "verifying-lru" }

// TestPinnedTrainingUnderChurnLRU is the churn acceptance test with a
// replacing LRU neighbor cache enabled (run with -race): depth-4 pipelined
// training while update storms hammer a second edge type must (a) never
// consume a neighbor list fetched at a different epoch than the batch's pin
// (every cache hit is cross-checked against the store at the lookup epoch),
// (b) keep every batch single-valued, and (c) produce losses bit-identical
// to a quiesced run with the same cache configuration — cache warm-up,
// epoch misses and re-validations shift RPCs, never values.
func TestPinnedTrainingUnderChurnLRU(t *testing.T) {
	const steps = 30
	g := churnTestGraph(200)

	// Reference: identical trainer + LRU cache, no churn.
	quiet, _ := newChurnTrainerCache(t, g, 42, func([]*Server, *partition.Assignment) storage.NeighborCache {
		return storage.NewLRUNeighborCache(256)
	})
	qpl := core.NewPipeline(quiet, core.PipelineConfig{Depth: 4, Workers: 3})
	quiet.SetSource(qpl)
	want, err := quiet.Train(steps)
	if cerr := qpl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	// Churned: same seed, verifying LRU, update storms on edge type 1.
	inner := storage.NewLRUNeighborCache(256)
	vc := &verifyingLRU{LRUNeighborCache: inner, t: t}
	trn, servers := newChurnTrainerCache(t, g, 42, func(srvs []*Server, a *partition.Assignment) storage.NeighborCache {
		vc.servers, vc.assign = srvs, a
		return vc
	})
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
	trn.SetSource(pl)
	defer pl.Close()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	for w := 0; w < 4; w++ {
		storm.Add(1)
		go func(seed int64) {
			defer storm.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv := servers[rng.Intn(len(servers))]
				local := srv.LocalVertices()
				src := local[rng.Intn(len(local))]
				req := UpdateRequest{Add: []RawEdge{{Src: src, Dst: graph.ID(rng.Intn(200)), Type: 1, Weight: 1}}}
				if i%3 == 0 {
					req.Remove = []RawEdge{{Src: src, Dst: graph.ID(rng.Intn(200)), Type: 1}}
				}
				var reply UpdateReply
				if err := srv.ServeUpdate(req, &reply); err != nil {
					t.Errorf("storm update: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}

	var got []float64
	maxStamp := uint64(0)
	for i := 0; i < steps; i++ {
		mb, err := pl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !mb.Epochs.Seen || mb.Epochs.Mixed() {
			t.Fatalf("step %d: batch span %+v, want single-valued", i, mb.Epochs)
		}
		if mb.Pin == nil {
			t.Fatalf("step %d: batch not pinned", i)
		}
		if s := mb.Epochs.Min; s > maxStamp {
			maxStamp = s
		}
		l, err := trn.Step(mb)
		if err != nil {
			t.Fatal(err)
		}
		pl.Recycle(mb)
		got = append(got, l)
	}
	close(stop)
	storm.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: churned LRU loss %g != quiesced LRU loss %g", i, got[i], want[i])
		}
	}
	if maxStamp < 2 {
		t.Fatalf("pin stamp never advanced past %d under continuous churn", maxStamp)
	}
	if vc.checked.Load() == 0 {
		t.Fatal("verifier never cross-checked a cache hit")
	}
	if _, _, epochMisses := inner.Counters(); epochMisses == 0 {
		t.Fatal("no epoch miss ever recorded: cache entries rode across epochs unchecked")
	}
}

// TestServerCompactTrigger: the overlay-size threshold folds the store
// from the update path, and the Compact RPC reports the fold; training
// reads keep answering across it.
func TestServerCompactTrigger(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	servers[0].SetCompactThreshold(3)
	defer servers[0].Close()
	tr := NewLocalTransport(servers, 0)

	for i := 0; i < 20; i++ {
		var reply UpdateReply
		src := servers[0].LocalVertices()[i%4]
		req := UpdateRequest{Add: []RawEdge{{Src: src, Dst: graph.ID(i % 8), Type: 1, Weight: 1}}}
		if err := servers[0].ServeUpdate(req, &reply); err != nil {
			t.Fatal(err)
		}
	}
	// The fold runs on the background compactor now — ServeUpdate only
	// signals — so wait for the trigger's effect instead of asserting it
	// inline. The buffered kick token guarantees the state after the last
	// update is re-examined, so the overlay must eventually shrink below
	// the bound the old synchronous trigger maintained.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ov := servers[0].Store().Overlay()
		if servers[0].Store().Compactions() > 0 && ov.AdjEntries <= 3+version.DefaultRetain {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if servers[0].Store().Compactions() == 0 {
		t.Fatal("threshold trigger never compacted")
	}
	if ov := servers[0].Store().Overlay(); ov.AdjEntries > 3+version.DefaultRetain {
		t.Fatalf("head overlay still holds %d entries past the threshold", ov.AdjEntries)
	}
	// The explicit RPC surface works too and reads survive the fold.
	var creply CompactReply
	if err := tr.Compact(0, CompactRequest{}, &creply); err != nil {
		t.Fatal(err)
	}
	if creply.BaseEpoch == 0 {
		t.Fatal("Compact RPC reports no fold ever happened")
	}
	c := NewClient(a, tr, storage.NewLRUNeighborCache(16))
	v := servers[0].LocalVertices()[0]
	got, want := make([]graph.ID, 4), make([]graph.ID, 4)
	if err := c.SampleBatch(got, []graph.ID{v}, 0, 4, 1); err != nil {
		t.Fatalf("post-compaction read: %v", err)
	}
	ns, _ := servers[0].Neighbors(v, 0)
	sampling.DrawVertex(want, v, ns, 1)
	if len(ns) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-compaction draws %v, want %v from %v", got, want, ns)
	}
}

// TestCacheFlushOnServerRestart: a shard restart resets its epoch
// numbering, making cached validity intervals from the old incarnation
// incomparable with the new one — the lease round that discovers the head
// regression must flush the neighbor cache so an old [since, through]
// entry can never wrongly hit once the fresh store's epochs catch up.
func TestCacheFlushOnServerRestart(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	build := func() []*Server { return FromGraph(g, a) }
	tr := NewLocalTransport(build(), 0)
	cache := storage.NewLRUNeighborCache(64)
	c := NewClient(a, tr, cache)

	// Advance shard 0 to epoch 2 and pin it.
	for i := 0; i < 2; i++ {
		var reply UpdateReply
		if err := tr.Servers[0].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: 0, Dst: graph.ID(4 + i), Type: 1, Weight: 1}}}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ProbeHeads(); err != nil { // observe head 2
		t.Fatal(err)
	}
	pin, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if pin.Epochs[0] != 2 {
		t.Fatalf("pin = %v, want shard 0 at 2", pin.Epochs)
	}
	// Warm an entry valid under the old incarnation's numbering.
	view := c.EpochView()
	view.SetPin(pin)
	dst := make([]graph.ID, 3)
	if err := view.SampleBatch(dst, []graph.ID{0}, 0, 3, 7); err != nil {
		t.Fatal(err)
	}
	if _, kind := cache.Get(0, 0, 2); kind != storage.KindHit {
		t.Fatal("warm-up did not admit under the old incarnation")
	}

	// Restart shard 0 (fresh store at epoch 0) and force the re-pin the
	// real flow performs when the dead pin surfaces ErrFuture.
	tr.Servers[0] = build()[0]
	c.Discard(pin)
	c.Unpin(pin)
	pin2, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(pin2)
	if pin2.Epochs[0] != 0 {
		t.Fatalf("post-restart pin = %v, want the fresh head", pin2.Epochs)
	}
	// The lease round saw the head regress: the cache must be empty, so a
	// read at any new-incarnation epoch refetches instead of hitting the
	// old entry.
	if n := cache.CachedVertices(); n != 0 {
		t.Fatalf("cache still holds %d old-incarnation entries after restart", n)
	}
	if _, kind := cache.Get(0, 0, 2); kind == storage.KindHit {
		t.Fatal("old-incarnation entry survived the restart flush")
	}
}
