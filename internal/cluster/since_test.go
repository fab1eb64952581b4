package cluster

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TestAttrSinceAndProbeHeads: attr replies carry per-row Since stamps, and
// Stats replies carry head and attribute-head stamps, so ProbeHeads
// observes out-of-band churn and the attribute watermark AttrCache reads
// advances with it.
func TestAttrSinceAndProbeHeads(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	c := NewClient(a, NewLocalTransport(servers, 0), nil)

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

	// The attr reply stamps the touched row with its install epoch and
	// leaves untouched rows at 0.
	var ar AttrsReply
	if err := c.T.Attrs(0, AttrsRequest{Vertices: []graph.ID{v0}}, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Since) != 1 || ar.Since[0] != 1 {
		t.Fatalf("attr Since = %v, want [1]", ar.Since)
	}
	if row := ar.Attrs.AppendRows(nil)[0]; row[0] != 7 {
		t.Fatalf("attr row = %v, want the rewritten row", row)
	}

	// ProbeHeads observes the churn with zero data RPCs: shard 0 at head 1
	// (attr head 1 too, the update set a row), shard 1 still at 0.
	heads, err := c.ProbeHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads[0] != 1 || heads[1] != 0 {
		t.Fatalf("probed heads = %v, want [1 0]", heads)
	}
	if a0, a1 := c.pins.attrHeads[0].Load(), c.pins.attrHeads[1].Load(); a0 != 1 || a1 != 0 {
		t.Fatalf("probed attr heads = [%d %d], want [1 0]", a0, a1)
	}
}
