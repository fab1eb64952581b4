package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// replyBytes is a Caller that counts the encoded bytes of the Attrs and
// SampleNeighbors replies passing through it, in the codec's layout and in
// the all-8-byte layout that preceded the narrow forms (every slice and
// scalar 8 bytes, 8·(1+len) per slice).
type replyBytes struct {
	Caller
	mu        sync.Mutex
	now, flat int
}

func (r *replyBytes) Call(ctx context.Context, part int, m Method, req, reply any) error {
	err := r.Caller.Call(ctx, part, m, req, reply)
	if err != nil {
		return err
	}
	slice := func(n int) int { return 8 * (1 + n) }
	r.mu.Lock() // the client calls its shards concurrently
	defer r.mu.Unlock()
	switch rep := reply.(type) {
	case *AttrsReply:
		rows := 8
		for _, row := range rep.Attrs.AppendRows(nil) {
			rows += slice(len(row))
		}
		r.flat += rows + slice(len(rep.Since)) + 4*8
	case *SampleReply:
		lists := 8
		for _, l := range rep.Lists {
			lists += slice(len(l))
		}
		r.flat += slice(len(rep.Samples)) + lists + slice(len(rep.Since)) + 3*8
	default:
		return nil
	}
	r.now += len(methods[m].putReply(nil, reply))
	return nil
}

// sampleBatch draws one mini-batch of the sample workload's shape through
// c at a pin it returns (64 traversed type-0 edges, 4 negatives each,
// [5,3] neighbourhoods of src, dst and negatives) and returns every
// distinct context vertex, in first-appearance order. The caller unpins.
func sampleBatch(tb testing.TB, c *Client) (uniq []graph.ID, pin *sampling.Pin) {
	tb.Helper()
	const et = graph.EdgeType(0)
	cands, counts, err := c.NegativePool(et)
	if err != nil {
		tb.Fatal(err)
	}
	neg := sampling.NewNegativeFromPool(cands, sampling.UnigramWeights(counts), rand.New(rand.NewSource(2)))

	pin, err = c.Pin()
	if err != nil {
		tb.Fatal(err)
	}
	view := c.EpochView()
	view.SetPin(pin)
	edges, err := c.AppendSampleEdges(nil, et, 64, 1, pin, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var src, dst []graph.ID
	for _, e := range edges {
		src, dst = append(src, e.Src), append(dst, e.Dst)
	}
	nb := sampling.NewNeighborhood(view, nil)
	rng := sampling.NewRng(3)
	seen := make(map[graph.ID]bool)
	for _, seeds := range [][]graph.ID{src, dst, neg.AppendSample(nil, dst, 4)} {
		var ctx sampling.Context
		if err := nb.SampleInto(&ctx, et, seeds, []int{5, 3}, rng); err != nil {
			tb.Fatal(err)
		}
		for _, layer := range ctx.Layers {
			for _, v := range layer {
				if !seen[v] {
					seen[v] = true
					uniq = append(uniq, v)
				}
			}
		}
	}
	return uniq, pin
}

// TestSampleReplyBytes builds one mini-batch of the sample shape (Taobao-sim
// scale 2, two hash shards, a 20% LRU neighbour cache, sampleBatch's draws,
// then the attribute rows of every distinct context vertex) and checks that
// its Attrs and SampleNeighbors replies encode to at most a third of their
// all-8-byte size.
func TestSampleReplyBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a Taobao-sim scale-2 graph")
	}
	g := dataset.Taobao(dataset.TaobaoSmallConfig(2))
	a, err := partition.HashPartitioner{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	counter := &replyBytes{Caller: NewLocalTransport(FromGraph(g, a), 0, 0)}
	c := NewClient(a, typed(counter), storage.NewLRUNeighborCache(g.NumVertices()/5))
	uniq, pin := sampleBatch(t, c)
	defer c.Unpin(pin)
	rows, err := c.AttrsAt(uniq, pin)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range uniq {
		want := g.VertexAttr(v)
		if len(rows[i]) != len(want) {
			t.Fatalf("attribute row of %d has %d values, want %d", v, len(rows[i]), len(want))
		}
		for j := range want {
			if rows[i][j] != want[j] {
				t.Fatalf("attribute row of %d differs from the graph's", v)
			}
		}
	}
	t.Logf("%d attribute rows: Attrs+SampleNeighbors replies %d bytes, %d in the all-8-byte layout (%.2fx)",
		len(uniq), counter.now, counter.flat, float64(counter.flat)/float64(counter.now))
	if 3*counter.now > counter.flat {
		t.Fatalf("replies take %d bytes, more than a third of %d", counter.now, counter.flat)
	}
}
