package cluster

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
)

// TestHostileRequestsRejected sends malformed requests — edge types outside
// the schema, out-of-range draw widths, draw totals (vertices x width) past
// maxDraws, added edges whose destination lies outside the vertex universe,
// Attrs and SampleNeighbors requests for vertices the shard does not own
// (outside the universe, negative, another shard's) — through the
// in-process transport and through loopback RPC. Each must come back as an
// error (the RPC server does not recover a handler panic, so a panic would
// kill the shard), and the server must answer a well-formed call
// afterwards. A client sampling vertex 0 after the rejected updates must
// not panic either.
func TestHostileRequestsRejected(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs := []graph.ID{2, 3}
	// Two vertices at a width just over half of maxDraws: each bound alone
	// holds, the total does not.
	overDraws := SampleRequest{Vertices: vs, Width: maxDraws/2 + 1}
	type call struct {
		name string
		m    Method
		req  any
	}
	var calls []call
	for _, et := range []graph.EdgeType{7, -1} {
		calls = append(calls,
			call{"SampleNeighbors/type", MSampleNeighbors, SampleRequest{Vertices: vs, EdgeType: et, Width: 2}},
			call{"SampleEdges/type", MSampleEdges, EdgesRequest{EdgeType: et, Count: 4}},
			call{"NegativePool/type", MNegativePool, NegPoolRequest{EdgeType: et}},
		)
	}
	calls = append(calls,
		call{"SampleNeighbors/negative width", MSampleNeighbors, SampleRequest{Vertices: vs[:1], Width: -5}},
		call{"SampleNeighbors/huge width", MSampleNeighbors, SampleRequest{Vertices: vs[:1], Width: 1 << 62}},
		call{"SampleNeighbors/draw total", MSampleNeighbors, overDraws},
		call{"SampleEdges/huge count", MSampleEdges, EdgesRequest{Count: 1 << 62}},
	)
	for _, v := range []graph.ID{1 << 40, -3, 60} {
		calls = append(calls,
			call{"Update/destination", MUpdate, UpdateRequest{Add: []RawEdge{{Src: 0, Dst: v}}}},
			call{"Attrs/vertex", MAttrs, AttrsRequest{Vertices: []graph.ID{2, v}}},
			call{"SampleNeighbors/vertex", MSampleNeighbors, SampleRequest{Vertices: []graph.ID{v, 2}, Width: 2}},
		)
	}

	// The draw total is checked before the handler sizes its output: the
	// rejected request would have allocated a maxDraws-ID sample buffer.
	srv := FromGraph(g, a)[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = srv.ServeSampleNeighbors(overDraws, &SampleReply{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("draw total past maxDraws accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting a draw total past maxDraws allocated %d bytes", n)
	}

	local := NewLocalTransport(FromGraph(g, a), 0, 0)
	rs, err := ServeRPC(FromGraph(g, a)[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	wire, err := DialRPC([]string{rs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()

	for _, st := range []struct {
		name string
		c    Caller
	}{{"local", local}, {"rpc", wire}} {
		for _, c := range calls {
			if err := st.c.Call(context.Background(), 0, c.m, c.req, methods[c.m].newReply()); err == nil {
				t.Errorf("%s via %s: hostile request accepted", c.name, st.name)
			}
		}
		var reply SampleReply
		ok := SampleRequest{Vertices: vs, Width: 3, Seed: 1}
		if err := st.c.Call(context.Background(), 0, MSampleNeighbors, ok, &reply); err != nil {
			t.Fatalf("well-formed call via %s after hostile ones: %v", st.name, err)
		}
		if len(reply.Samples) != 6 {
			t.Fatalf("well-formed call via %s: %d samples, want 6", st.name, len(reply.Samples))
		}
		c := NewClient(a, typed(st.c), nil)
		ns := make([]graph.ID, 3)
		if err := c.SampleBatch(ns, []graph.ID{0}, 0, 3, 1); err != nil {
			t.Fatalf("draws from 0 via %s: %v", st.name, err)
		}
		if _, err := c.Attrs(ns); err != nil {
			t.Fatalf("attrs of 0's neighbors via %s: %v", st.name, err)
		}
		var ctx sampling.Context
		nbr := sampling.NewNeighborhood(c, rand.New(rand.NewSource(1)))
		if err := nbr.SampleInto(&ctx, 0, []graph.ID{0}, []int{5, 3}, sampling.NewRng(1)); err != nil {
			t.Fatalf("sampling 0 via %s: %v", st.name, err)
		}
	}

	// Two hash shards: shard 0 must refuse vertex 1, which shard 1 owns.
	a2, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Part(1) != 1 {
		t.Fatalf("vertex 1 is on shard %d, want 1", a2.Part(1))
	}
	rs2, err := ServeRPC(FromGraph(g, a2)[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	wire2, err := DialRPC([]string{rs2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer wire2.Close()
	for _, st := range []struct {
		name string
		c    Caller
	}{{"local", NewLocalTransport(FromGraph(g, a2), 0, 0)}, {"rpc", wire2}} {
		for _, c := range []call{
			{"Attrs/other shard", MAttrs, AttrsRequest{Vertices: []graph.ID{0, 1}}},
			{"SampleNeighbors/other shard", MSampleNeighbors, SampleRequest{Vertices: []graph.ID{1}, Width: 2}},
		} {
			if err := st.c.Call(context.Background(), 0, c.m, c.req, methods[c.m].newReply()); err == nil {
				t.Errorf("%s via %s: request for another shard's vertex accepted", c.name, st.name)
			}
		}
	}
}
