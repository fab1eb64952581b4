package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/version"
)

// churnTestGraph builds a two-edge-type power-law graph: type 0 ("train")
// carries the training edges, type 1 ("churn") is the one update storms
// hammer, so the trained subgraph is bit-identical at every epoch.
func churnTestGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(9))
	s := graph.MustSchema([]string{"v"}, []string{"train", "churn"})
	b := graph.NewBuilder(s, true)
	for i := 0; i < n; i++ {
		b.AddVertex(0, []float64{float64(i), 1})
	}
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

// churnEncoder builds the GraphSAGE-style encoder the platform uses, seeded
// deterministically.
func churnEncoder(n int, hops []int, rng *rand.Rand) *core.Encoder {
	const dim = 8
	feat := core.NewTableFeatures("emb", n, dim, rng)
	enc := &core.Encoder{Features: feat, Materialize: true}
	in := dim
	for k := range hops {
		enc.Agg = append(enc.Agg, operator.NewMeanAggregator("agg", in, dim, rng))
		act := nn.ActReLU
		if k == len(hops)-1 {
			act = nn.ActIdentity
		}
		enc.Comb = append(enc.Comb, operator.NewConcatCombinerAct("comb", in, dim, dim, act, rng))
		in = dim
	}
	return enc
}

// newChurnTrainer wires a deterministic cluster trainer over fresh servers
// for g: same seed => same draws, whatever happens on the churn edge type.
func newChurnTrainer(t *testing.T, g *graph.Graph, seed int64) (*core.LinkTrainer, []*Server) {
	return newChurnTrainerCache(t, g, seed, func([]*Server, *partition.Assignment) storage.NeighborCache {
		return storage.NoCache{}
	})
}

// newChurnTrainerCache is newChurnTrainer with a caller-chosen neighbor
// cache; the factory sees the live servers and assignment so test caches
// can cross-check served lists against store ground truth.
func newChurnTrainerCache(t *testing.T, g *graph.Graph, seed int64, mkCache func([]*Server, *partition.Assignment) storage.NeighborCache) (*core.LinkTrainer, []*Server) {
	t.Helper()
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers), mkCache(servers, a))
	rng := rand.New(rand.NewSource(seed))
	enc := churnEncoder(g.NumVertices(), []int{3, 2}, rng)
	cfg := core.TrainerConfig{EdgeType: 0, HopNums: []int{3, 2}, Batch: 16, NegK: 2, LR: 0.05}
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, enc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return trn, servers
}

// TestPinnedTrainingUnderChurn is the acceptance test for epoch pinning:
// depth-4 pipelined training while goroutines storm ServeUpdate on the
// churn edge type. Every completed batch must report a single pinned epoch
// (Mixed() never true — it is an invariant now, not a detector), the pins
// must actually advance as updates land, and because the storms never touch
// the trained edge type, the loss curve must be bit-identical to a quiesced
// run at the pinned epoch. Run with -race: this is also the concurrency
// test for the multi-version store under a live sampling load.
func TestPinnedTrainingUnderChurn(t *testing.T) {
	const steps = 30
	g := churnTestGraph(200)

	// Reference: identical trainer, no churn.
	quiet, _ := newChurnTrainer(t, g, 42)
	qpl := core.NewPipeline(quiet, core.PipelineConfig{Depth: 4, Workers: 3})
	quiet.SetSource(qpl)
	want, err := quiet.Train(steps)
	if cerr := qpl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	// Churned: same seed, with update storms on edge type 1 throughout.
	trn, servers := newChurnTrainer(t, g, 42)
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
	var lastPinEpochs []uint64
	for i := 0; i < steps; i++ {
		mb, err := pl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !mb.Epochs.Seen {
			t.Fatalf("step %d: batch observed no epochs", i)
		}
		if mb.Epochs.Mixed() {
			t.Fatalf("step %d: pinned batch reports mixed epochs %+v", i, mb.Epochs)
		}
		if mb.Pin == nil {
			t.Fatalf("step %d: batch not pinned", i)
		}
		if s := mb.Epochs.Min; s > maxStamp {
			maxStamp = s
		}
		lastPinEpochs = append(lastPinEpochs[:0], mb.Pin.Epochs...)
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
			t.Fatalf("step %d: churned loss %g != quiesced loss %g", i, got[i], want[i])
		}
	}
	// The storms ran the whole time: the training must have re-pinned onto
	// post-update snapshots, not ridden epoch 0 throughout.
	if maxStamp < 2 {
		t.Fatalf("pin stamp never advanced past %d under continuous churn", maxStamp)
	}
	advanced := false
	for _, e := range lastPinEpochs {
		if e > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatalf("final batch still pinned the pre-churn snapshot: %v", lastPinEpochs)
	}
}

// TestEvictionRepinRetry: a batch holding a pin whose lease the server lost
// (forced eviction, simulating a restart) must transparently re-pin the
// current snapshot and retry, completing with a single-valued span at the
// new epoch instead of surfacing an error.
func TestEvictionRepinRetry(t *testing.T) {
	s := graph.MustSchema([]string{"v"}, []string{"e"})
	b := graph.NewBuilder(s, true)
	for i := 0; i < 8; i++ {
		b.AddVertex(0, []float64{float64(i)})
	}
	for v := graph.ID(0); v < 8; v++ {
		b.AddEdge(v, (v+1)%8, 0, 1)
		b.AddEdge(v, (v+3)%8, 0, 1)
	}
	g := b.Finalize()

	srv := &Server{store: version.NewStoreRetain(1, 2)} // retain only 2 epochs
	for v := 0; v < g.NumVertices(); v++ {
		srv.AddVertex(graph.ID(v), g.VertexAttr(graph.ID(v)))
		for _, u := range g.OutNeighbors(graph.ID(v), 0) {
			srv.AddEdge(graph.ID(v), u, 0)
		}
	}
	srv.Seal()
	a := &partition.Assignment{P: 1, Of: make([]int, g.NumVertices())}
	c := NewClient(a, NewLocalTransport([]*Server{srv}), storage.NoCache{})

	rng := rand.New(rand.NewSource(5))
	cfg := core.TrainerConfig{EdgeType: 0, HopNums: []int{2, 2}, Batch: 8, NegK: 2, LR: 0.05}
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, &core.Encoder{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewSyncSource(trn)

	// Batch 1 pins epoch 0.
	mb, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if mb.Pin == nil || mb.Pin.Epochs[0] != 0 {
		t.Fatalf("first batch pin = %+v, want epoch 0", mb.Pin)
	}
	src.Recycle(mb)
	if srv.Store().Leases(0) == 0 {
		t.Fatal("client lease on epoch 0 not held server-side")
	}

	// Updates land without the client observing them (nothing sampled), so
	// its pin still references epoch 0; then the server loses the lease.
	for i := 0; i < 3; i++ {
		var reply UpdateReply
		if err := srv.ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: graph.ID(i), Dst: graph.ID(i + 4), Type: 0, Weight: 1}}}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	srv.Store().Evict(0)
	if _, err := srv.Store().At(0); !version.IsEvicted(err) {
		t.Fatalf("setup: epoch 0 still readable: %v", err)
	}

	// Batch 2 starts on the dead pin, hits the eviction, and must re-pin
	// the head and complete.
	mb, err = src.Next()
	if err != nil {
		t.Fatalf("batch after eviction failed instead of re-pinning: %v", err)
	}
	if mb.Pin == nil || mb.Pin.Epochs[0] != 3 {
		t.Fatalf("re-pinned batch pin = %+v, want epoch 3", mb.Pin)
	}
	if !mb.Epochs.Seen || mb.Epochs.Mixed() {
		t.Fatalf("re-pinned batch span = %+v, want single-valued", mb.Epochs)
	}
	if mb.Epochs.Min < 2 {
		t.Fatalf("re-pinned batch kept stamp %d", mb.Epochs.Min)
	}
	src.Recycle(mb)
	if srv.Store().Leases(3) == 0 {
		t.Fatal("new pin holds no lease on the head epoch")
	}

	// Session teardown releases the idle pin's lease so long-running
	// servers do not accumulate one permanently pinned epoch per client.
	c.ReleaseIdlePins()
	if n := srv.Store().Leases(3); n != 0 {
		t.Fatalf("%d leases on the head epoch after ReleaseIdlePins", n)
	}
}

// TestServerRestartFutureEpochRepin: a shard restart rebuilds its store at
// epoch 0, so a client pin referencing a higher epoch now points at the
// FUTURE of the fresh store. The retry path must treat that exactly like
// eviction — re-pin the (new) head and complete — and the pin manager must
// accept the shard's lower post-restart head instead of re-leasing forever.
func TestServerRestartFutureEpochRepin(t *testing.T) {
	g := churnTestGraph(60)
	a := &partition.Assignment{P: 1, Of: make([]int, g.NumVertices())}
	build := func() *Server {
		servers := FromGraph(g, a)
		return servers[0]
	}
	srv := build()
	local := NewLocalTransport([]*Server{srv})
	tr := countCalls(local)
	c := NewClient(a, tr, storage.NoCache{})
	rng := rand.New(rand.NewSource(5))
	cfg := core.TrainerConfig{EdgeType: 0, HopNums: []int{2, 2}, Batch: 8, NegK: 2, LR: 0.05}
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, &core.Encoder{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewSyncSource(trn)

	next := func() *core.MiniBatch {
		t.Helper()
		mb, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !mb.Epochs.Seen || mb.Epochs.Mixed() {
			t.Fatalf("batch span = %+v, want single-valued", mb.Epochs)
		}
		return mb
	}
	src.Recycle(next()) // observes head 0
	for i := 0; i < 2; i++ {
		var reply UpdateReply
		if err := srv.ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: graph.ID(i), Dst: graph.ID(i + 1), Type: 0, Weight: 1}}}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	src.Recycle(next()) // still on pin 0, but observes head 2 in replies
	mb := next()        // re-pins at epoch 2
	if mb.Pin.Epochs[0] != 2 {
		t.Fatalf("pre-restart pin = %v, want [2]", mb.Pin.Epochs)
	}
	src.Recycle(mb)
	// Baseline: a steady batch on a fresh pin makes no Lease calls.
	base0, _ := tr.Calls()
	src.Recycle(next())
	base1, _ := tr.Calls()
	steady := base1 - base0

	// Restart: the shard comes back with a fresh store at epoch 0. The
	// client's live pin now references epoch 2 of a store that has never
	// reached it.
	local.Servers[0] = build()

	mb = next()
	if mb.Pin.Epochs[0] != 0 {
		t.Fatalf("post-restart pin = %v, want the fresh head [0]", mb.Pin.Epochs)
	}
	src.Recycle(mb)
	// The manager accepted the lower head: the following batch reuses the
	// pin and costs exactly the pre-restart steady rate (no lease round).
	local0, _ := tr.Calls()
	src.Recycle(next())
	if local1, _ := tr.Calls(); local1-local0 != steady {
		t.Fatalf("steady post-restart batch cost %d calls, want %d (re-leasing every batch?)", local1-local0, steady)
	}
}

// TestAttrCacheEpochInvalidation: head attribute reads see an attribute
// rewrite as soon as it lands, and an edge-only update leaves the rows
// alone.
func TestAttrCacheEpochInvalidation(t *testing.T) {
	g := churnTestGraph(120)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers), storage.NoCache{})

	// Vertex 0 is owned by server 0 under hash partitioning.
	rows, err := c.Attrs([]graph.ID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	oldVal := rows[0][0]

	// Edge-only update: the epoch advances, the row does not change.
	var reply UpdateReply
	src0 := servers[0].LocalVertices()[0]
	if err := servers[0].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: src0, Dst: 1, Type: 0, Weight: 1}}}, &reply); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Attrs([]graph.ID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != oldVal {
		t.Fatalf("row after edge-only update = %v, want %v", rows[0], oldVal)
	}

	// Attribute rewrite on vertex 0: the next head read serves the new row.
	if err := servers[0].ServeUpdate(UpdateRequest{SetAttr: []AttrUpdate{{V: 0, Attr: []float64{4242}}}}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.AttrsSet != 1 {
		t.Fatalf("attr update reply = %+v", reply)
	}
	for _, vs := range [][]graph.ID{{0, 6}, {0}} {
		rows, err = c.Attrs(vs)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0] != 4242 {
			t.Fatalf("row after rewrite = %v (stale %v served)", rows[0], oldVal)
		}
	}
}

// TestAttrCachePinnedReadSkipsNewerRow: a row rewritten after a pin was
// leased, and read under a newer pin, is not served to the older pin,
// which still reads its own snapshot's row.
func TestAttrCachePinnedReadSkipsNewerRow(t *testing.T) {
	g := churnTestGraph(120)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers), storage.NoCache{})
	v := servers[0].LocalVertices()[0]
	vs := []graph.ID{v}

	pinA, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(pinA)
	old, err := c.AttrsAt(vs, pinA)
	if err != nil {
		t.Fatal(err)
	}
	newRow := []float64{old[0][0] + 100}
	var reply UpdateReply
	if err := servers[0].ServeUpdate(UpdateRequest{SetAttr: []AttrUpdate{{V: v, Attr: newRow}}}, &reply); err != nil {
		t.Fatal(err)
	}
	// An unpinned read observes the new head, so the next Pin leases it.
	if _, err := c.Attrs(vs); err != nil {
		t.Fatal(err)
	}
	pinB, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(pinB)
	if pinB.Epochs[0] <= pinA.Epochs[0] {
		t.Fatalf("pin B epochs %v do not follow pin A epochs %v", pinB.Epochs, pinA.Epochs)
	}

	for _, step := range []struct {
		name string
		pin  *sampling.Pin
		want float64
	}{
		{"pin B reads the new row", pinB, newRow[0]},
		{"pin A reads its own row", pinA, old[0][0]},
		{"pin B again", pinB, newRow[0]},
		{"pin A again", pinA, old[0][0]},
	} {
		rows, err := c.AttrsAt(vs, step.pin)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0] != step.want {
			t.Fatalf("%s: got %v, want %v", step.name, rows[0][0], step.want)
		}
	}
}

// TestStreamSourceTrainsOnLiveGraph drives the streaming BatchSource over a
// live cluster: queued update batches apply between training batches, the
// shards' epochs advance, and every batch stays single-epoch.
func TestStreamSourceTrainsOnLiveGraph(t *testing.T) {
	g := churnTestGraph(120)
	trn, servers := newChurnTrainer(t, g, 7)
	feed := NewUpdateStream(NewLocalTransport(servers))
	ss := core.NewStreamSource(trn.Source(), feed, core.StreamConfig{MaxPerTick: 2})
	trn.SetSource(ss)

	// Queue live updates: new training-type edges (the stream changes what
	// is being learned) plus an attribute rewrite.
	for i := 0; i < 6; i++ {
		p := i % len(servers)
		src := servers[p].LocalVertices()[i]
		feed.Push(p, UpdateRequest{Add: []RawEdge{{Src: src, Dst: graph.ID(i), Type: 0, Weight: 1}}})
	}
	feed.Push(0, UpdateRequest{SetAttr: []AttrUpdate{{V: servers[0].LocalVertices()[0], Attr: []float64{1, 2}}}})

	for i := 0; i < 4; i++ {
		mb, err := ss.Next()
		if err != nil {
			t.Fatal(err)
		}
		if mb.Epochs.Mixed() {
			t.Fatalf("streamed batch %d mixed: %+v", i, mb.Epochs)
		}
		ss.Recycle(mb)
	}
	if ss.Applied() != 7 {
		t.Fatalf("applied %d update batches, want 7 (4 ticks x up to 2)", ss.Applied())
	}
	if feed.Pending() != 0 {
		t.Fatalf("%d updates still pending", feed.Pending())
	}
	epochs := servers[0].UpdateEpoch() + servers[1].UpdateEpoch()
	if epochs == 0 {
		t.Fatal("stream applied but no server epoch advanced")
	}
}
