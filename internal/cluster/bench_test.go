package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// BenchmarkClusterSample measures one NEIGHBORHOOD mini-batch hop sequence
// (batch 256, hops 5x3) over the batched cluster client on the in-memory
// transport, across shard counts and with/without the importance cache.
// The rpc/op metric is the deterministic transport call count per
// mini-batch; before/after numbers live in CHANGES.md.
func BenchmarkClusterSample(b *testing.B) {
	g := powerLawTestGraph(2000)
	batch := make([]graph.ID, 256)
	rnd := rand.New(rand.NewSource(3))
	for i := range batch {
		batch[i] = graph.ID(rnd.Intn(g.NumVertices()))
	}
	hops := []int{5, 3}

	for _, shards := range []int{2, 4} {
		a, err := (partition.HashPartitioner{}).Partition(g, shards)
		if err != nil {
			b.Fatal(err)
		}
		servers := FromGraph(g, a)
		for _, kind := range []string{"none", "importance", "lru"} {
			var mk func() storage.NeighborCache
			switch kind {
			case "importance":
				imp := storage.NewImportanceCacheTopFraction(g, 2, 0.2)
				mk = func() storage.NeighborCache { return imp }
			case "lru":
				mk = func() storage.NeighborCache { return storage.NewLRUNeighborCache(g.NumVertices() / 5) }
			default:
				mk = func() storage.NeighborCache { return storage.NoCache{} }
			}
			b.Run(fmt.Sprintf("shards=%d/cache=%s", shards, kind), func(b *testing.B) {
				tr := countCalls(NewLocalTransport(servers))
				cache := mk()
				c := NewClient(a, tr, cache)
				nbr := sampling.NewNeighborhood(c, rand.New(rand.NewSource(1)))
				var ctx sampling.Context
				rng := sampling.NewRng(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := nbr.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				local, remote := tr.Calls()
				b.ReportMetric(float64(local+remote)/float64(b.N), "rpc/op")
				// Cache efficiency: hit rate plus the epoch-miss rate (the
				// extra re-validation fetches version safety costs under
				// churn; zero on this quiescent workload).
				if lru, ok := cache.(*storage.LRUNeighborCache); ok {
					hits, misses, epochMisses := lru.Counters()
					if total := hits + misses + epochMisses; total > 0 {
						b.ReportMetric(float64(hits)/float64(total), "cacheHitRate")
						b.ReportMetric(float64(epochMisses)/float64(total), "epochMissRate")
					}
				}
			})
		}
	}

	// Fan-out: the same hop sequence with 200µs injected per-call latency
	// (LatencyTransport). Every scatter round launches its shards at once,
	// so a hop costs max(RTT), not shards x RTT: ns/op should hold roughly
	// flat as shards double.
	for _, shards := range []int{2, 4} {
		a, err := (partition.HashPartitioner{}).Partition(g, shards)
		if err != nil {
			b.Fatal(err)
		}
		servers := FromGraph(g, a)
		b.Run(fmt.Sprintf("shards=%d/rtt=200us", shards), func(b *testing.B) {
			tr := NewLatencyTransport(NewLocalTransport(servers), 200*time.Microsecond)
			c := NewClient(a, tr, storage.NoCache{})
			nbr := sampling.NewNeighborhood(c, rand.New(rand.NewSource(1)))
			var ctx sampling.Context
			rng := sampling.NewRng(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nbr.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m := c.Metrics()
			if m.Fanouts > 0 {
				b.ReportMetric(m.FanoutWidth, "fanWidth")
			}
		})
	}

	// Skew: a two-lane workload (one hub set resampled every op, one
	// never-repeating cold stream, both squeezed through a too-small LRU):
	// the cold lane's admissions keep evicting the hubs.
	{
		const nHot, coldPer, width, cacheCap = 8, 12, 4, 16
		nCold := coldPer * 1024
		sg := skewTestGraph(nHot, nCold)
		sa, err := (partition.HashPartitioner{}).Partition(sg, 2)
		if err != nil {
			b.Fatal(err)
		}
		sservers := FromGraph(sg, sa)
		hotVs := make([]graph.ID, nHot)
		for i := range hotVs {
			hotVs[i] = graph.ID(i)
		}
		hotDst := make([]graph.ID, nHot*width)
		coldVs := make([]graph.ID, coldPer)
		coldDst := make([]graph.ID, coldPer*width)
		b.Run("shards=2/skew", func(b *testing.B) {
			tr := countCalls(NewLocalTransport(sservers))
			c := NewClient(sa, tr, storage.NewLRUNeighborCache(cacheCap))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range coldVs {
					coldVs[j] = graph.ID(nHot + (i*coldPer+j)%nCold)
				}
				if err := c.SampleBatch(coldDst, coldVs, 1, width, uint64(i)); err != nil {
					b.Fatal(err)
				}
				if err := c.SampleBatch(hotDst, hotVs, 0, width, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			local, remote := tr.Calls()
			b.ReportMetric(float64(local+remote)/float64(b.N), "rpc/op")
		})
	}

	// Fault-tolerance overhead: the same hop sequence through the retry
	// layer over a seeded 1% request-drop fault rate — what the policy
	// stack costs when the network is imperfect but alive. retries/op
	// reports how many re-issued calls papered over the drops.
	for _, shards := range []int{2} {
		a, err := (partition.HashPartitioner{}).Partition(g, shards)
		if err != nil {
			b.Fatal(err)
		}
		servers := FromGraph(g, a)
		b.Run(fmt.Sprintf("shards=%d/cache=none/faults=1%%", shards), func(b *testing.B) {
			ft := NewFaultTransport(NewLocalTransport(servers), shards, FaultConfig{Seed: 17, DropRate: 0.01})
			rt := NewRetryTransport(ft, shards, CallPolicy{
				Attempts:   4,
				Backoff:    50 * time.Microsecond,
				MaxBackoff: time.Millisecond,
			}, 17)
			c := NewClient(a, rt, storage.NoCache{})
			nbr := sampling.NewNeighborhood(c, rand.New(rand.NewSource(1)))
			var ctx sampling.Context
			rng := sampling.NewRng(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nbr.SampleInto(&ctx, 0, batch, hops, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Retries())/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkRPCRoundTrip measures one call over loopback TCP to a single
// shard (ServeRPC, DialRPC): framing, encoding and decoding both ways, the
// kernel round trip and the handler, at payloads shaped like the
// benchmark's sample workload. Attrs asks for 1000 rows of width 16;
// SampleNeighbors draws width 5 for 200 vertices of degree 1 to 9, the
// short ones answered with their lists.
func BenchmarkRPCRoundTrip(b *testing.B) {
	const n, width = 2000, 16
	gb := graph.NewBuilder(graph.SimpleSchema(), true)
	for v := range n {
		attr := make([]float64, width)
		for j := range attr {
			attr[j] = float64(v) + float64(j)/width
		}
		gb.AddVertex(0, attr)
	}
	for v := range n {
		for k := range 1 + v%9 {
			gb.AddEdge(graph.ID(v), graph.ID((v*7+k+1)%n), 0, 1)
		}
	}
	g := gb.Finalize()
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := ServeRPC(FromGraph(g, a)[0], "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	tr, err := DialRPC([]string{rs.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()

	attrsReq := AttrsRequest{Vertices: make([]graph.ID, 1000)}
	for i := range attrsReq.Vertices {
		attrsReq.Vertices[i] = graph.ID(i)
	}
	sampleReq := SampleRequest{Vertices: make([]graph.ID, 200), Width: 5, WantLists: true, Seed: 1}
	for i := range sampleReq.Vertices {
		sampleReq.Vertices[i] = graph.ID(i * 10)
	}
	b.Run("Attrs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var reply AttrsReply
			if err := tr.Attrs(0, attrsReq, &reply); err != nil || reply.Attrs.Len() != 1000 {
				b.Fatal(err, reply.Attrs.Len())
			}
		}
	})
	b.Run("SampleNeighbors", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var reply SampleReply
			if err := tr.SampleNeighbors(0, sampleReq, &reply); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// codecCaller runs every call through the wire codec: the reply the inner
// layer produces is encoded and decoded before the caller sees it.
type codecCaller struct{ Caller }

func (c codecCaller) Call(ctx context.Context, part int, m Method, req, reply any) error {
	fresh := methods[m].newReply()
	if err := c.Caller.Call(ctx, part, m, req, fresh); err != nil {
		return err
	}
	dec, err := methods[m].getReply(methods[m].putReply(nil, fresh))
	if err != nil {
		return err
	}
	methods[m].copyReply(reply, dec)
	return nil
}

// BenchmarkServeAttrs measures the shards' side of the Attrs requests of
// one sample-shaped mini-batch (sampleBatch over Taobao-sim scale 2 and two
// hash shards): each shard's ServeAttrs over the context vertices it owns,
// in ascending order and pinned as a client asks, with no transport or
// codec.
func BenchmarkServeAttrs(b *testing.B) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(2))
	a, err := partition.HashPartitioner{}.Partition(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	srvs := FromGraph(g, a)
	c := NewClient(a, typed(NewLocalTransport(srvs)), storage.NewLRUNeighborCache(g.NumVertices()/5))
	uniq, pin := sampleBatch(b, c)
	defer c.Unpin(pin)
	slices.Sort(uniq)
	reqs := make([]AttrsRequest, len(srvs))
	for _, v := range uniq {
		p := a.Part(v)
		reqs[p] = AttrsRequest{Vertices: append(reqs[p].Vertices, v), Pin: pin.Epochs[p], Pinned: true}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for p, srv := range srvs {
			if err := srv.ServeAttrs(reqs[p], &AttrsReply{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAttrsWire measures Client.Attrs of 2200 distinct vertices with
// 30 attributes each over two shards, every reply encoded and decoded: the
// server's row gathering, the reply's encoding and decoding and the
// client's grouping and row expansion, with no network. binary rows hold
// only 0 and 1, as Taobao-sim's do; continuous rows hold distinct values.
func BenchmarkAttrsWire(b *testing.B) {
	const n, dim = 2200, 30
	for _, kind := range []string{"binary", "continuous"} {
		rnd := rand.New(rand.NewSource(5))
		bld := graph.NewBuilder(graph.SimpleSchema(), true)
		for range n {
			row := make([]float64, dim)
			for j := range row {
				if row[j] = rnd.Float64(); kind == "binary" {
					row[j] = float64(rnd.Intn(2))
				}
			}
			bld.AddVertex(0, row)
		}
		g := bld.Finalize()
		a, err := (partition.HashPartitioner{}).Partition(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		c := NewClient(a, typed(codecCaller{NewLocalTransport(FromGraph(g, a))}), nil)
		vs := make([]graph.ID, n)
		for i := range vs {
			vs[i] = graph.ID(i)
		}
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				rows, err := c.Attrs(vs)
				if err != nil || len(rows) != n || len(rows[n-1]) != dim {
					b.Fatal(err, len(rows))
				}
			}
		})
	}
}
