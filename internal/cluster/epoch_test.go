package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// splitServers builds a 2-shard cluster over a small power-law graph.
func splitServers(t *testing.T, n int) (*graph.Graph, *partition.Assignment, []*Server) {
	t.Helper()
	g := powerLawTestGraph(n)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, FromGraph(g, a)
}

// Sampling replies are stamped with the serving shard's update epoch; a
// client epoch view accumulates them per consumer, and an applied update
// makes batches that span both shards detectably mixed.
func TestEpochViewDetectsMixedEpochs(t *testing.T) {
	g, a, servers := splitServers(t, 200)
	tr := NewLocalTransport(servers, 0, 0)
	c := NewClient(a, tr, storage.NoCache{})

	batch := make([]graph.ID, 64)
	for i := range batch {
		batch[i] = graph.ID(i) // hash partitioning spreads these over both shards
	}
	dst := make([]graph.ID, len(batch)*3)

	view := c.EpochView()
	if err := view.SampleBatch(dst, batch, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	span := view.Span()
	if !span.Seen {
		t.Fatal("span saw no replies")
	}
	if span.Mixed() {
		t.Fatalf("fresh cluster reported mixed epochs: %+v", span)
	}
	if span.Min != 0 || span.Max != 0 {
		t.Fatalf("fresh cluster epochs = [%d, %d], want [0, 0]", span.Min, span.Max)
	}

	// Apply an update to shard 0 only; its epoch advances.
	src0 := servers[0].LocalVertices()[0]
	var reply UpdateReply
	if err := servers[0].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: src0, Dst: 1, Type: 0, Weight: 1}}}, &reply); err != nil {
		t.Fatal(err)
	}
	if servers[0].UpdateEpoch() != 1 || servers[1].UpdateEpoch() != 0 {
		t.Fatalf("epochs after update: %d/%d, want 1/0",
			servers[0].UpdateEpoch(), servers[1].UpdateEpoch())
	}

	view.ResetSpan()
	if view.Span().Seen {
		t.Fatal("reset span not empty")
	}
	if err := view.SampleBatch(dst, batch, 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	span = view.Span()
	if !span.Mixed() || span.Min != 0 || span.Max != 1 {
		t.Fatalf("post-update span = %+v, want mixed [0, 1]", span)
	}
	_ = g
}

// MiniBatches assembled over a cluster environment are pinned to one
// snapshot at assembly time: every batch — even one whose assembly
// straddles an update landing on one shard — reports a single-valued epoch
// span (Mixed() is an invariant violation now, not a detector), and the
// pin advances once the update is observed.
func TestMiniBatchEpochStamping(t *testing.T) {
	_, a, servers := splitServers(t, 200)
	tr := NewLocalTransport(servers, 0, 0)
	c := NewClient(a, tr, storage.NoCache{})

	rng := rand.New(rand.NewSource(3))
	cfg := core.TrainerConfig{EdgeType: 0, HopNums: []int{3, 2}, Batch: 32, NegK: 2, LR: 0.01}
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, &core.Encoder{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewSyncSource(trn)

	mb, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Epochs.Seen || mb.Epochs.Mixed() {
		t.Fatalf("fresh-cluster batch span = %+v, want single-valued", mb.Epochs)
	}
	if mb.Pin == nil || len(mb.Pin.Epochs) != a.P {
		t.Fatalf("batch not pinned: %+v", mb.Pin)
	}
	firstStamp := mb.Epochs.Min
	if mb.Pin.Epochs[0] != 0 || mb.Pin.Epochs[1] != 0 {
		t.Fatalf("fresh cluster pin epochs = %v, want [0 0]", mb.Pin.Epochs)
	}
	src.Recycle(mb)

	// An update lands on shard 1 only: the shards now sit at different
	// update generations — the regime that used to produce mixed batches.
	src1 := servers[1].LocalVertices()[0]
	var reply UpdateReply
	if err := servers[1].ServeUpdate(UpdateRequest{Add: []RawEdge{{Src: src1, Dst: 0, Type: 0, Weight: 1}}}, &reply); err != nil {
		t.Fatal(err)
	}
	// The first post-update batch may still read the old pin (the update is
	// only observable through reply heads); drive a couple of batches and
	// require every one single-valued, with the pin eventually advancing to
	// the new snapshot.
	sawNewPin := false
	for i := 0; i < 3; i++ {
		mb, err = src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !mb.Epochs.Seen || mb.Epochs.Mixed() {
			t.Fatalf("post-update batch %d span = %+v, want single-valued", i, mb.Epochs)
		}
		if mb.Pin.Epochs[1] == 1 {
			sawNewPin = true
			if mb.Epochs.Min == firstStamp {
				t.Fatalf("re-pinned batch kept the old stamp %d", firstStamp)
			}
		}
		src.Recycle(mb)
	}
	if !sawNewPin {
		t.Fatal("pin never advanced to the post-update snapshot")
	}
}

// The Bootstrap RPC serves everything a graph-free worker needs: the
// partition assignment and the schema, from any shard.
func TestBootstrapServesAssignmentAndSchema(t *testing.T) {
	g, a, servers := splitServers(t, 120)
	tr := NewLocalTransport(servers, 0, 0)
	for part := 0; part < a.P; part++ {
		got, schema, err := Bootstrap(tr, part)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != a.P || len(got.Of) != len(a.Of) {
			t.Fatalf("bootstrap shape: %d/%d, want %d/%d", got.P, len(got.Of), a.P, len(a.Of))
		}
		for v := range a.Of {
			if got.Of[v] != a.Of[v] {
				t.Fatalf("vertex %d assigned to %d, want %d", v, got.Of[v], a.Of[v])
			}
		}
		if schema.NumEdgeTypes() != g.Schema().NumEdgeTypes() ||
			schema.NumVertexTypes() != g.Schema().NumVertexTypes() {
			t.Fatalf("bootstrap schema %d/%d types", schema.NumVertexTypes(), schema.NumEdgeTypes())
		}
		if schema.EdgeTypeName(0) != g.Schema().EdgeTypeName(0) {
			t.Fatalf("edge type name %q", schema.EdgeTypeName(0))
		}
	}
	// A bare server (no SetBootstrap) must refuse rather than serve junk.
	bare := NewServer(0, 1)
	var reply BootstrapReply
	if err := bare.ServeBootstrap(BootstrapRequest{}, &reply); err == nil {
		t.Fatal("bare server served bootstrap")
	}
}

// The attribute LRU serves repeated hot vertices without another RPC round
// and returns rows identical to the direct path.
func TestAttrCacheServesHotVertices(t *testing.T) {
	_, a, servers := splitServers(t, 120)
	tr := NewLocalTransport(servers, 0, 0)
	c := NewClient(a, tr, storage.NoCache{})

	vs := []graph.ID{5, 9, 5, 17, 9, 33}
	direct, err := c.Attrs(vs)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewAttrCache(c, 64)
	got, err := cache.Attrs(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if len(got[i]) != len(direct[i]) {
			t.Fatalf("row %d length %d, want %d", i, len(got[i]), len(direct[i]))
		}
		for j := range got[i] {
			if got[i][j] != direct[i][j] {
				t.Fatalf("row %d differs at %d", i, j)
			}
		}
	}

	tr.ResetCalls()
	if _, err := cache.Attrs(vs); err != nil {
		t.Fatal(err)
	}
	if local, remote := tr.Calls(); local+remote != 0 {
		t.Fatalf("hot batch cost %d RPCs, want 0", local+remote)
	}
	if cache.HitRate() == 0 {
		t.Fatal("hit rate not tracked")
	}

	// Eviction: a capacity-1 cache still answers correctly.
	tiny := NewAttrCache(c, 1)
	if _, err := tiny.Attrs(vs); err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 1 {
		t.Fatalf("tiny cache holds %d rows, want 1", tiny.Len())
	}
}
