package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// harness gives a test Caller the typed Transport methods.
type harness struct {
	facade
	Caller
}

// typed makes c a Transport, for test harnesses that implement only Caller.
func typed(c Caller) Transport { return harness{facade{c}, c} }

// TestMethodTableNamesGraphService: every table row names an exported
// GraphService method and a Transport method with the row's request and
// reply types, so a wire-name typo fails here and not at the first call.
func TestMethodTableNamesGraphService(t *testing.T) {
	svc := reflect.TypeOf(&GraphService{})
	tr := reflect.TypeOf((*Transport)(nil)).Elem()
	if svc.NumMethod() != int(numMethods) {
		t.Errorf("GraphService has %d methods, the table %d", svc.NumMethod(), numMethods)
	}
	for m := range numMethods {
		spec := methods[m]
		if spec.wire != "Graph."+spec.name {
			t.Errorf("%v: wire name %q", m, spec.wire)
		}
		rm, ok := svc.MethodByName(spec.name)
		if !ok {
			t.Errorf("%v: GraphService has no method %q", m, spec.name)
			continue
		}
		reply := reflect.TypeOf(spec.newReply())
		if rm.Type.NumIn() != 3 || rm.Type.In(2) != reply {
			t.Errorf("%v: GraphService.%s is %v, want reply type %v", m, spec.name, rm.Type, reply)
		}
		tm, ok := tr.MethodByName(spec.name)
		if !ok {
			t.Errorf("%v: Transport has no method %q", m, spec.name)
			continue
		}
		if tm.Type.In(1) != rm.Type.In(1) || tm.Type.In(2) != reply {
			t.Errorf("%v: Transport.%s is %v, GraphService.%s is %v", m, spec.name, tm.Type, spec.name, rm.Type)
		}
	}
}

// TestMethodTableAgreement sends the same request for every Method, to each
// shard, through three stacks over identical clusters: in-process, loopback
// TCP, and retry over seeded reply loss over in-process. The replies must be
// deeply equal. Requests run in table order, so Update, Lease, Release and
// Compact change every cluster the same way; under reply loss the tokened
// ones are answered from the server's dedup ring.
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

	local := NewLocalTransport(FromGraph(g, a), 0, 0)
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
	ft := NewFaultTransport(NewLocalTransport(FromGraph(g, a), 0, 0), 2, FaultConfig{Seed: 3, ReplyDropRate: 0.3})
	chaos := NewRetryTransport(ft, 2, CallPolicy{Attempts: 20}, 1)
	// gob does not tell a nil slice from an empty one, so the loopback
	// stack's replies are compared with the local reply's wire form.
	stacks := []struct {
		name string
		c    Caller
		gob  bool
	}{{"local", local, false}, {"rpc", wire, true}, {"retry/fault/local", chaos, false}}

	var leased [2]uint64
	request := func(m Method, p int) any {
		vs := owned[p][:4]
		switch m {
		case MNeighbors:
			return NeighborsRequest{Vertices: vs, EdgeType: 0}
		case MSampleNeighbors:
			return SampleRequest{Vertices: vs, Counts: []int{1, 2, 1, 1}, EdgeType: 0, Width: 3, Seed: 7}
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
			return ReleaseRequest{Epoch: leased[p]}
		case MCompact:
			return CompactRequest{}
		}
		panic(fmt.Sprintf("no request for %v", m))
	}
	for m := range numMethods {
		for p := range 2 {
			var want any
			for _, st := range stacks {
				reply := methods[m].newReply()
				if err := st.c.Call(p, m, request(m, p), reply); err != nil {
					t.Fatalf("%v on part %d via %s: %v", m, p, st.name, err)
				}
				if want == nil {
					want = reply
					continue
				}
				ref := want
				if st.gob {
					ref = wireForm(t, m, want)
				}
				if !reflect.DeepEqual(reply, ref) {
					t.Errorf("%v on part %d: %s replied %+v, %s %+v", m, p, st.name, reply, stacks[0].name, want)
				}
			}
			if r, ok := want.(*LeaseReply); ok {
				leased[p] = r.Epoch
			}
		}
	}
	if _, replyDrops, _, _ := ft.Injected(); replyDrops == 0 || chaos.Retries() == 0 {
		t.Fatalf("no reply was lost (%d) or retried (%d); the chaos stack proved nothing", replyDrops, chaos.Retries())
	}
}

// wireForm returns reply as it arrives after a gob round trip.
func wireForm(t *testing.T, m Method, reply any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(reply); err != nil {
		t.Fatal(err)
	}
	out := methods[m].newReply()
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
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
	NewClient(a, NewLocalTransport(servers, 0, 0), nil).RegisterObs(r)
	for _, s := range servers {
		s.RegisterObs(r)
	}
	snap := r.Snapshot()
	for _, m := range []string{"Neighbors", "SampleNeighbors", "SampleEdges", "NegativePool", "Stats", "Attrs", "Lease", "Release"} {
		if _, ok := snap.Histograms["cluster.client.rpc."+m+".latency"]; !ok {
			t.Errorf("client latency histogram for %s not registered", m)
		}
		if _, ok := snap.Counters["cluster.client.rpc."+m+".errors"]; !ok {
			t.Errorf("client error counter for %s not registered", m)
		}
	}
	for id := range servers {
		for _, m := range []string{"Neighbors", "Attrs", "SampleNeighbors", "SampleEdges", "NegativePool", "Stats", "Lease", "Release", "Update", "Compact"} {
			name := fmt.Sprintf("cluster.server.%d.rpc.%s.latency", id, m)
			if _, ok := snap.Histograms[name]; !ok {
				t.Errorf("%s not registered", name)
			}
		}
	}
}
