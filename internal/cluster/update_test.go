package cluster

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func TestServeUpdate(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)

	// Add an edge 0 -> 7 (click) on server 0, remove 0 -> 4.
	var reply UpdateReply
	err := servers[0].ServeUpdate(UpdateRequest{
		Add:    []RawEdge{{Src: 0, Dst: 7, Type: 0}},
		Remove: []RawEdge{{Src: 0, Dst: 4, Type: 0}},
	}, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Added != 1 || reply.Removed != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	ns, ok := servers[0].Neighbors(0, 0)
	if !ok {
		t.Fatal("vertex 0 must stay local")
	}
	has7, has4 := false, false
	for _, u := range ns {
		if u == 7 {
			has7 = true
		}
		if u == 4 {
			has4 = true
		}
	}
	if !has7 || has4 {
		t.Fatalf("after update: neighbors = %v", ns)
	}

	// Removing an absent edge is idempotent.
	reply = UpdateReply{}
	if err := servers[0].ServeUpdate(UpdateRequest{
		Remove: []RawEdge{{Src: 0, Dst: 99, Type: 0}},
	}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Removed != 0 {
		t.Fatal("phantom removal")
	}

	// Adding for a non-local source fails.
	if err := servers[0].ServeUpdate(UpdateRequest{
		Add: []RawEdge{{Src: 1, Dst: 2, Type: 0}},
	}, &reply); err == nil {
		t.Fatal("expected ownership error")
	}
}

// updateCounter sums the Added and Removed counts of the Update replies
// that pass through it.
type updateCounter struct {
	facade
	Caller
	added, removed atomic.Int64
}

func (c *updateCounter) Call(ctx context.Context, part int, m Method, req, reply any) error {
	err := c.Caller.Call(ctx, part, m, req, reply)
	if r, ok := reply.(*UpdateReply); ok && err == nil {
		c.added.Add(int64(r.Added))
		c.removed.Add(int64(r.Removed))
	}
	return err
}

// TestApplyDelta: a delta pushed through UpdateStream.PushEdges is grouped
// into one batch per owning shard, and Apply lands each mutation on the
// shard that owns its source.
func TestApplyDelta(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 2)
	servers := FromGraph(g, a)
	counted := &updateCounter{Caller: NewLocalTransport(servers, 0)}
	counted.facade = facade{counted}
	feed := NewUpdateStream(counted)

	add := []RawEdge{
		{Src: 0, Dst: 6, Type: 0, Weight: 1},
		{Src: 1, Dst: 7, Type: 0, Weight: 1},
	}
	remove := []RawEdge{{Src: 2, Dst: 6, Type: 0}}
	feed.PushEdges(a, add, remove, nil)
	if got := feed.Pending(); got != 2 {
		t.Fatalf("pending batches = %d, want one per touched shard (2)", got)
	}
	applied, err := feed.Apply(10)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || feed.Pending() != 0 || feed.Applied() != 2 {
		t.Fatalf("applied=%d pending=%d total=%d", applied, feed.Pending(), feed.Applied())
	}
	if added, removed := counted.added.Load(), counted.removed.Load(); added != 2 || removed != 1 {
		t.Fatalf("added=%d removed=%d", added, removed)
	}
	// Each addition landed on its owner.
	if ns, _ := servers[0].Neighbors(0, 0); !contains(ns, 6) {
		t.Fatal("edge 0->6 missing")
	}
	if ns, _ := servers[1].Neighbors(1, 0); !contains(ns, 7) {
		t.Fatal("edge 1->7 missing")
	}
	if ns, _ := servers[0].Neighbors(2, 0); contains(ns, 6) {
		t.Fatal("edge 2->6 should be removed")
	}
}

func contains(ns []graph.ID, v graph.ID) bool {
	for _, u := range ns {
		if u == v {
			return true
		}
	}
	return false
}

func TestUpdateOverRPC(t *testing.T) {
	g := testGraph(t)
	a, _ := partition.HashPartitioner{}.Partition(g, 1)
	servers := FromGraph(g, a)
	rs, err := ServeRPC(servers[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	tr, err := DialRPC([]string{rs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Updates travel over the same wire as reads.
	var reply UpdateReply
	if err := tr.Update(0, UpdateRequest{
		Add: []RawEdge{{Src: 0, Dst: 7, Type: 1, Weight: 1}},
	}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Added != 1 {
		t.Fatalf("rpc update reply = %+v", reply)
	}
}
