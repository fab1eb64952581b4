package cluster

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// TestHopMetrics asserts the per-(edge type, hop) sampling lanes: expansions
// driven through a hop-tagged epoch view land in their hop's lane, direct
// calls land in hop 0, and the lanes surface both through Metrics() and
// through a registered obs snapshot.
func TestHopMetrics(t *testing.T) {
	g := churnTestGraph(120)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers, 0, 0), storage.NewLRUNeighborCache(64))

	// A Neighborhood over the client's epoch view tags each hop of the
	// expansion (mirroring how the trainer's batch sources sample).
	view := c.EpochView()
	nbr := &sampling.Neighborhood{Src: view}
	var ctx sampling.Context
	rng := sampling.NewRng(7)
	seeds := []graph.ID{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 3; i++ {
		if err := nbr.SampleInto(&ctx, 0, seeds, []int{4, 3}, rng); err != nil {
			t.Fatal(err)
		}
	}
	// A direct batch call, outside any hop loop, lands in hop 0.
	dst := make([]graph.ID, len(seeds)*3)
	if err := c.SampleBatch(dst, seeds, 0, 3, 99); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	for _, lane := range []string{"t0.h0", "t0.h1", "t0.h2"} {
		hm, ok := m.Hops[lane]
		if !ok || hm.Calls == 0 {
			t.Fatalf("lane %s missing or empty: %+v", lane, m.Hops)
		}
		if hm.Slots == 0 || hm.Time <= 0 {
			t.Fatalf("lane %s has no slots/time: %+v", lane, hm)
		}
	}
	if h1 := m.Hops["t0.h1"]; h1.Calls != 3 {
		t.Fatalf("hop-1 calls = %d, want 3 (one per SampleInto)", h1.Calls)
	}
	// The LRU cache warms up across the three identical expansions, so later
	// rounds must have recorded hits in the per-hop lanes.
	totalHits := int64(0)
	for _, hm := range m.Hops {
		totalHits += hm.CacheHits
	}
	if totalHits == 0 {
		t.Fatal("no per-hop cache hits recorded over a warming LRU")
	}
	if s := m.String(); !strings.Contains(s, "t0.h1") {
		t.Fatalf("Metrics.String does not print sampling lanes:\n%s", s)
	}

	// The same lanes must appear in a registered snapshot, as dynamic
	// collector series, alongside the per-method latency histograms.
	reg := obs.NewRegistry()
	c.RegisterObs(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"cluster.client.sample.t0.h1.calls",
		"cluster.client.sample.t0.h1.slots",
		"cluster.client.sample.t0.h2.nanos",
	} {
		if snap.Counters[name] == 0 {
			t.Fatalf("snapshot series %s missing or zero; counters: %v", name, snap.Counters)
		}
	}
	hs, ok := snap.Histograms["cluster.client.rpc.SampleNeighbors.latency"]
	if !ok || hs.Count == 0 {
		t.Fatalf("SampleNeighbors latency histogram missing or empty: %+v", snap.Histograms)
	}
	if hs.P99 < hs.P50 || hs.Max < hs.P50 {
		t.Fatalf("latency quantiles inconsistent: %+v", hs)
	}
}

// TestServerRegisterObs asserts the serve-side instruments: handler latency
// histograms fill as RPCs arrive and the snapshot-store gauges track epochs.
func TestServerRegisterObs(t *testing.T) {
	g := churnTestGraph(80)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]
	reg := obs.NewRegistry()
	srv.RegisterObs(reg)

	var sr SampleReply
	if err := srv.ServeSampleNeighbors(SampleRequest{Vertices: []graph.ID{0, 1, 2}, EdgeType: 0, Width: 2}, &sr); err != nil {
		t.Fatal(err)
	}
	var ur UpdateReply
	req := UpdateRequest{Add: []RawEdge{{Src: 0, Dst: 5, Type: 0, Weight: 1}}}
	if err := srv.ServeUpdate(req, &ur); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if h := snap.Histograms["cluster.server.0.rpc.SampleNeighbors.latency"]; h.Count == 0 {
		t.Fatalf("SampleNeighbors latency histogram empty: %+v", snap.Histograms)
	}
	if h := snap.Histograms["cluster.server.0.rpc.Update.latency"]; h.Count != 1 {
		t.Fatalf("Update latency count = %d, want 1", h.Count)
	}
	if snap.Counters["cluster.server.0.updates.applied_ops"] != 1 {
		t.Fatalf("applied_ops = %d, want 1", snap.Counters["cluster.server.0.updates.applied_ops"])
	}
	if snap.Gauges["cluster.server.0.epoch.head"] != int64(ur.Epoch) {
		t.Fatalf("epoch.head gauge = %d, want %d", snap.Gauges["cluster.server.0.epoch.head"], ur.Epoch)
	}
}
