package cluster

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TestAttrSinceAndProbeHeads: an attr reply after an update carries the
// rewritten row, and Stats replies carry head stamps, so ProbeHeads
// observes out-of-band churn.
func TestAttrSinceAndProbeHeads(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers), nil)

	// Pick one vertex per shard.
	var v0, v1 graph.ID
	seen := 0
	for v := graph.ID(0); v < 60 && seen < 2; v++ {
		if a.Part(v) == 0 && v0 == 0 && seen == 0 {
			v0, seen = v, 1
		} else if a.Part(v) == 1 {
			v1, seen = v, 2
		}
	}
	if a.Part(v0) != 0 || a.Part(v1) != 1 {
		t.Fatalf("failed to pick per-shard vertices: %d %d", v0, v1)
	}

	// Shard 0: one edge add touching v0's adjacency, and a SetAttr on v0.
	var ur UpdateReply
	err = servers[0].ServeUpdate(UpdateRequest{
		Add:     []RawEdge{{Src: v0, Dst: v1, Type: 0, Weight: 1}},
		SetAttr: []AttrUpdate{{V: v0, Attr: []float64{7, 7}}},
	}, &ur)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 {
		t.Fatalf("update epoch = %d, want 1", ur.Epoch)
	}

	var ar AttrsReply
	if err := c.T.Attrs(0, AttrsRequest{Vertices: []graph.ID{v0}}, &ar); err != nil {
		t.Fatal(err)
	}
	if row := ar.Attrs.AppendRows(nil)[0]; row[0] != 7 {
		t.Fatalf("attr row = %v, want the rewritten row", row)
	}

	// ProbeHeads observes the churn with zero data RPCs: shard 0 at head 1,
	// shard 1 still at 0.
	heads, err := c.ProbeHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads[0] != 1 || heads[1] != 0 {
		t.Fatalf("probed heads = %v, want [1 0]", heads)
	}
}
