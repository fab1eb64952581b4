package cluster

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
)

// liveHeap forces a collection and reads the heap it left live, in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// TestShardFootprint builds two hash shards of the Taobao-sim scale-2 graph
// and holds the live heap they add to at most 12 bytes per stored edge. A
// stored edge costs its 8-byte neighbour ID plus its share of the CSR
// offsets, the slot index and the coded attribute column.
func TestShardFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a Taobao-sim scale-2 graph")
	}
	const maxPerEdge = 12.0
	g := dataset.Taobao(dataset.TaobaoSmallConfig(2))
	a, err := partition.HashPartitioner{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	servers := FromGraph(g, a)
	added := liveHeap() - before
	edges := 0
	for _, s := range servers {
		edges += s.NumLocalEdges()
	}
	if edges != g.NumEdges() {
		t.Fatalf("shards hold %d edges, the graph %d", edges, g.NumEdges())
	}
	perEdge := added / float64(edges)
	t.Logf("2 shards, %d edges: %.2f MB live heap, %.1f B per edge", edges, added/1e6, perEdge)
	if perEdge > maxPerEdge {
		t.Fatalf("shards take %.1f B of live heap per stored edge, more than %.0f", perEdge, maxPerEdge)
	}
}
