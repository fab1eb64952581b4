package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/version"
)

// harness gives a test Caller the typed Transport methods.
type harness struct {
	facade
	Caller
}

// typed makes c a Transport, for test harnesses that implement only Caller.
func typed(c Caller) Transport { return harness{facade{c}, c} }

// TestMethodTableAgreement sends the same request for every Method, to each
// shard, through three stacks over identical clusters: in-process, loopback
// TCP, and retry over seeded reply loss over in-process. The replies must be
// deeply equal, nil and empty slices told apart. Requests run in table
// order, so Update, Lease, Release and Compact change every cluster the same
// way; under reply loss the tokened ones are answered from the server's
// dedup ring. Then two application errors, an unowned vertex and a pinned
// read of an evicted epoch, must fail identically through every stack.
func TestMethodTableAgreement(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([][]graph.ID, 2)
	for v, p := range a.Of {
		owned[p] = append(owned[p], graph.ID(v))
	}

	local := NewLocalTransport(FromGraph(g, a), 0)
	var addrs []string
	for _, s := range FromGraph(g, a) {
		rs, err := ServeRPC(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		addrs = append(addrs, rs.Addr())
	}
	wire, err := DialRPC(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()
	ft := NewFaultTransport(NewLocalTransport(FromGraph(g, a), 0), 2, FaultConfig{Seed: 3, ReplyDropRate: 0.3})
	chaos := NewRetryTransport(ft, 2, CallPolicy{Attempts: 20}, 1)
	stacks := []struct {
		name string
		c    Caller
	}{{"local", local}, {"rpc", wire}, {"retry/fault/local", chaos}}

	var leased [2]uint64
	request := func(m Method, p int) any { return agreementRequest(m, owned[p][:4], leased[p]) }
	for m := range numMethods {
		for p := range 2 {
			var want any
			for _, st := range stacks {
				reply := methods[m].newReply()
				if err := st.c.Call(context.Background(), p, m, request(m, p), reply); err != nil {
					t.Fatalf("%v on part %d via %s: %v", m, p, st.name, err)
				}
				if want == nil {
					want = reply
					continue
				}
				if !reflect.DeepEqual(reply, want) {
					t.Errorf("%v on part %d: %s replied %+v, %s %+v", m, p, st.name, reply, stacks[0].name, want)
				}
			}
			if r, ok := want.(*LeaseReply); ok {
				leased[p] = r.Epoch
			}
		}
	}

	// Application errors cross every stack with the same text and stay
	// non-transient. Enough updates first push epoch 1 out of the ring.
	for i := range version.DefaultRetain + 1 {
		for _, st := range stacks {
			for p := range 2 {
				req := UpdateRequest{SetAttr: []AttrUpdate{{V: owned[p][0], Attr: []float64{float64(i)}}}}
				if err := st.c.Call(context.Background(), p, MUpdate, req, new(UpdateReply)); err != nil {
					t.Fatalf("update via %s: %v", st.name, err)
				}
			}
		}
	}
	for _, row := range []struct {
		name    string
		req     func(p int) AttrsRequest
		evicted bool
	}{
		{"unowned vertex", func(p int) AttrsRequest { return AttrsRequest{Vertices: owned[1-p][:1]} }, false},
		{"evicted epoch", func(p int) AttrsRequest { return AttrsRequest{Vertices: owned[p][:1], Pinned: true, Pin: 1} }, true},
	} {
		for p := range 2 {
			var want string
			for _, st := range stacks {
				err := st.c.Call(context.Background(), p, MAttrs, row.req(p), new(AttrsReply))
				switch {
				case err == nil:
					t.Fatalf("%s on part %d via %s: no error", row.name, p, st.name)
				case IsTransient(err):
					t.Errorf("%s on part %d via %s: %v is transient", row.name, p, st.name, err)
				case version.IsEvicted(err) != row.evicted:
					t.Errorf("%s on part %d via %s: IsEvicted(%v) = %v", row.name, p, st.name, err, !row.evicted)
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Errorf("%s on part %d: %s failed with %q, %s with %q", row.name, p, st.name, err, stacks[0].name, want)
				}
			}
		}
	}
	if _, replyDrops, _, _ := ft.Injected(); replyDrops == 0 || chaos.Retries() == 0 {
		t.Fatalf("no reply was lost (%d) or retried (%d); the chaos stack proved nothing", replyDrops, chaos.Retries())
	}
}

// agreementRequest is a well-formed request for m to the part owning vs;
// leased is an epoch the part has leased, for Release.
func agreementRequest(m Method, vs []graph.ID, leased uint64) any {
	switch m {
	case MSampleNeighbors:
		return SampleRequest{Vertices: vs, EdgeType: 0, Width: 3, Seed: 7}
	case MSampleEdges:
		return EdgesRequest{EdgeType: 0, Count: 6, Seed: 7}
	case MNegativePool:
		return NegPoolRequest{EdgeType: 0}
	case MStats:
		return StatsRequest{}
	case MAttrs:
		return AttrsRequest{Vertices: vs}
	case MBootstrap:
		return BootstrapRequest{}
	case MUpdate:
		return UpdateRequest{
			Add:     []RawEdge{{Src: vs[0], Dst: vs[1], Type: 1, Weight: 2}},
			SetAttr: []AttrUpdate{{V: vs[2], Attr: []float64{9, 9}}},
		}
	case MLease:
		return LeaseRequest{}
	case MRelease:
		return ReleaseRequest{Epoch: leased}
	case MCompact:
		return CompactRequest{}
	}
	panic(fmt.Sprintf("no request for %v", m))
}

// TestRegisteredMetricNames: every per-RPC instrument name the client and
// the servers registered before the method table existed is still
// registered (dashboards and the benchmark read them by name).
func TestRegisteredMetricNames(t *testing.T) {
	g := churnTestGraph(40)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	r := obs.NewRegistry()
	NewClient(a, NewLocalTransport(servers, 0), nil).RegisterObs(r)
	for _, s := range servers {
		s.RegisterObs(r)
	}
	snap := r.Snapshot()
	for _, m := range []string{"SampleNeighbors", "SampleEdges", "NegativePool", "Stats", "Attrs", "Lease", "Release"} {
		if _, ok := snap.Histograms["cluster.client.rpc."+m+".latency"]; !ok {
			t.Errorf("client latency histogram for %s not registered", m)
		}
		if _, ok := snap.Counters["cluster.client.rpc."+m+".errors"]; !ok {
			t.Errorf("client error counter for %s not registered", m)
		}
	}
	for id := range servers {
		for _, m := range []string{"Attrs", "SampleNeighbors", "SampleEdges", "NegativePool", "Stats", "Lease", "Release", "Update", "Compact"} {
			name := fmt.Sprintf("cluster.server.%d.rpc.%s.latency", id, m)
			if _, ok := snap.Histograms[name]; !ok {
				t.Errorf("%s not registered", name)
			}
		}
	}
}
