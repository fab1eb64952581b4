// Distributed: the storage-layer machinery end to end — partition a
// Taobao-sim graph with METIS, serve each partition from a graph server
// over the binary RPC protocol on loopback TCP, compare the remote
// sampling traffic of [5,3] NEIGHBORHOOD batches under no cache and under
// importance, random and LRU neighbor caches (the Figure 9 experiment on a
// live cluster), then train GraphSAGE on a LIVE, CHANGING graph: the
// training worker bootstraps graph-free (assignment and schema from the
// Bootstrap RPC), a prefetch pipeline assembles mini-batches ahead of the
// optimizer, and a feeder goroutine streams edge insertions, deletions and
// attribute rewrites into the shards the whole time. Each applied update
// batch becomes a new epoch of the servers' multi-version snapshot store;
// every training batch pins the snapshot current when it was scheduled, so
// its TRAVERSE draw, all three neighborhood expansions and the attribute
// prefetch read one consistent graph even mid-update — the training loop
// never sees a mixed-epoch batch.
//
// Run with: go run ./examples/distributed [-parts 2] [-scale 0.05] [-steps 60]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	aligraph "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

func main() {
	var (
		parts = flag.Int("parts", 4, "number of graph-server partitions")
		scale = flag.Float64("scale", 0.1, "Taobao-sim dataset scale")
		steps = flag.Int("steps", 60, "GraphSAGE training mini-batches")
	)
	flag.Parse()

	g := dataset.Taobao(dataset.TaobaoSmallConfig(*scale))
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Partition with METIS and start one RPC server per partition.
	assign, err := partition.Metis{}.Partition(g, *parts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metis: sizes %v, edge cut %.1f%%\n", assign.Sizes(), 100*assign.CutFraction(g))

	servers := cluster.FromGraph(g, assign)
	addrs := make([]string, *parts)
	for i, s := range servers {
		rs, err := cluster.ServeRPC(s, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		addrs[i] = rs.Addr()
		fmt.Printf("  server %d on %s: %d vertices, %d edges\n",
			i, rs.Addr(), s.NumLocalVertices(), s.NumLocalEdges())
	}

	tr, err := cluster.DialRPC(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	// Figure 9's sampling workload with four cache strategies. Every shard
	// is across loopback TCP, so every SampleNeighbors RPC counts.
	users := g.VerticesOfType(0)
	workload := func(c storage.NeighborCache) (rpcs, vertices int64, d time.Duration) {
		ct := &bench.SampleTraffic{Transport: tr, Home: -1}
		start := time.Now()
		if err := bench.Figure9Workload(cluster.NewClient(assign, ct, c), users); err != nil {
			log.Fatal(err)
		}
		return ct.RPCs.Load(), ct.Vertices.Load(), time.Since(start)
	}

	fmt.Printf("\n50 batches of 16 users, [5,3] neighbourhood draws over RPC (20%% of vertices cached):\n")
	fmt.Printf("  %-12s %8s %10s %10s\n", "cache", "rpcs", "vertices", "time")
	for _, s := range []struct {
		name  string
		cache storage.NeighborCache
	}{
		{"none", storage.NoCache{}},
		{"importance", storage.NewImportanceCacheTopFraction(g, 2, 0.2)},
		{"random", bench.NewRandomCache(g, 0.2, rand.New(rand.NewSource(2)))},
		{"lru", storage.NewLRUNeighborCache(g.NumVertices() / 5)},
	} {
		rpcs, vertices, d := workload(s.cache)
		fmt.Printf("  %-12s %8d %10d %10v\n", s.name, rpcs, vertices, d.Round(time.Millisecond))
	}
	fmt.Println("\nCaching the neighbour lists of high-Imp^(k) vertices lets the client draw")
	fmt.Println("the most-travelled hops itself — the paper's Figure 9 on a live cluster.")

	// Live-training demo: the worker never touches the local graph — its
	// partition assignment and schema come from the cluster's Bootstrap RPC
	// — a depth-4 pipeline assembles pinned batches ahead of the optimizer,
	// and a feeder goroutine streams updates into the shards throughout.
	bassign, schema, err := cluster.Bootstrap(tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbootstrap: %d partitions, %d vertices, %d vertex / %d edge types — no local graph needed\n",
		bassign.P, len(bassign.Of), schema.NumVertexTypes(), schema.NumEdgeTypes())
	cp := aligraph.NewClusterPlatform(bassign, tr, storage.NewLRUNeighborCache(len(bassign.Of)/5), 1)
	cfg := aligraph.DefaultTrainConfig()
	cfg.HopNums = []int{3, 2}
	cfg.Batch = 32
	cfg.UseAttrs = true
	cfg.Pipeline = aligraph.PipelineConfig{Depth: 4, Workers: 2}
	trainer, err := cp.NewGraphSAGE(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	// The live feed: a producer goroutine pushes update batches — new click
	// edges between random users and items, deletions of edges it added
	// earlier, and attribute rewrites — while training consumes them
	// between batches.
	feed := cp.NewUpdateStream()
	stop := make(chan struct{})
	var feederWG sync.WaitGroup
	n := len(bassign.Of)
	feederWG.Add(1)
	go func() {
		defer feederWG.Done()
		frng := rand.New(rand.NewSource(42))
		var recent []cluster.RawEdge
		for {
			select {
			case <-stop:
				return
			default:
			}
			add := make([]cluster.RawEdge, 0, 4)
			for j := 0; j < 4; j++ {
				e := cluster.RawEdge{
					Src:    graph.ID(frng.Intn(n)),
					Dst:    graph.ID(frng.Intn(n)),
					Type:   0,
					Weight: 1 + frng.Float64(),
				}
				add = append(add, e)
				recent = append(recent, e)
			}
			var remove []cluster.RawEdge
			if len(recent) > 64 { // retire old insertions: deletions stream too
				remove = append(remove, recent[0])
				recent = recent[1:]
			}
			var attrs []cluster.AttrUpdate
			if frng.Intn(4) == 0 { // occasional attribute rewrite
				// Rewrite a perturbed copy of the vertex's real row so the
				// replacement keeps the schema's attribute dimensionality.
				v := graph.ID(frng.Intn(n))
				row := append([]float64(nil), g.VertexAttr(v)...)
				if len(row) > 0 {
					row[frng.Intn(len(row))] = frng.Float64()
				}
				attrs = append(attrs, cluster.AttrUpdate{V: v, Attr: row})
			}
			feed.PushEdges(bassign, add, remove, attrs)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	ss := trainer.StreamUpdates(feed, aligraph.StreamConfig{MaxPerTick: bassign.P})

	fmt.Printf("training GraphSAGE over %d RPC shards on a LIVE graph (%d steps, batch %d, prefetch depth %d)...\n",
		*parts, *steps, cfg.Batch, cfg.Pipeline.Depth)
	start := time.Now()
	losses, err := trainer.Train(*steps)
	close(stop)
	feederWG.Wait()
	if err != nil {
		log.Fatal(err)
	}
	if len(losses) == 0 {
		fmt.Println("no training steps requested; skipping the convergence check")
		return
	}
	window := len(losses) / 4
	if window < 1 {
		window = 1
	}
	first := avg(losses[:window])
	last := avg(losses[len(losses)-window:])
	fmt.Printf("trained in %v: loss %.4f -> %.4f\n",
		time.Since(start).Round(time.Millisecond), first, last)
	fmt.Printf("live updates applied during training: %d batches; server epochs now:", ss.Applied())
	for i, s := range servers {
		fmt.Printf(" shard%d=%d", i, s.UpdateEpoch())
	}
	fmt.Println()
	if last >= first {
		log.Fatalf("live distributed training did not reduce the loss (%.4f -> %.4f)", first, last)
	}
	if ss.Applied() == 0 {
		log.Fatal("the update feed applied nothing: the demo was not live")
	}
	fmt.Printf("client metrics:\n%s", cp.Client.Metrics())
	fmt.Println("distributed GraphSAGE converges while the graph changes underneath —")
	fmt.Println("every mini-batch reads one pinned snapshot epoch, updates land between batches.")
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
