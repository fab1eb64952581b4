// Serving: the online inference tier over a live two-shard cluster.
//
// A GraphSAGE model is warm-trained over two in-process graph servers, then
// handed to the serving tier (internal/serve), which answers embedding and
// link-score lookups with three mechanisms stacked:
//
//  1. request coalescing — concurrent lookups merge into one deduplicated
//     encoder mini-batch per flush window, so the k-hop sampling fan-out
//     (the expensive, RPC-bound part) is paid once per batch;
//  2. an epoch-aware embedding cache — each entry remembers the exact
//     sampled k-hop dependency set it was computed from, and is served only
//     while every dependency is provably unchanged;
//  3. incremental re-embedding — a graph update invalidates ONLY the cached
//     vertices whose dependency set it touched; everything else keeps
//     serving from cache, and a background refresher re-embeds the hot
//     invalidated vertices before anyone asks.
//
// The demo measures each mechanism: coalescing vs one-request-per-batch,
// the scoped invalidation footprint of a single edge insert, and the lag
// bound catching out-of-band churn.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/partition"
)

func main() {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.05))
	n := g.NumVertices()
	assign, err := (partition.Metis{}).Partition(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	servers := cluster.FromGraph(g, assign)
	// In-process shards behind a transport that charges 200us per remote
	// call — enough to make the sampling fan-out the dominant lookup cost,
	// as it is over a real network.
	tp := cluster.NewLatencyTransport(cluster.NewLocalTransport(servers, 0), 200*time.Microsecond)
	cp := aligraph.NewClusterPlatform(assign, tp, nil, 1)
	fmt.Printf("cluster: 2 shards, %d vertices, %d edges\n", n, g.NumEdges())

	cfg := aligraph.DefaultTrainConfig()
	cfg.Dim = 16
	cfg.UseAttrs = true
	trainer, err := cp.NewGraphSAGE(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()
	losses, err := trainer.Train(40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm-up: 40 steps, loss %.4f -> %.4f\n\n", losses[0], losses[len(losses)-1])

	// --- 1. Coalescing: 64 concurrent cold lookups, serial vs coalesced.
	lookups := func(srv *aligraph.InferenceServer) time.Duration {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(v aligraph.ID) {
				defer wg.Done()
				<-start
				if _, err := srv.Embed(v); err != nil {
					log.Fatal(err)
				}
			}(aligraph.ID(i))
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		return time.Since(t0)
	}
	serial := cp.Serve(trainer, aligraph.ServeConfig{MaxBatch: 1, CacheCap: 1})
	serialTime := lookups(serial)
	serial.Close()
	srv := cp.Serve(trainer, aligraph.ServeConfig{
		FlushWindow:  500 * time.Microsecond,
		MaxBatch:     64,
		CacheCap:     n,
		MaxLag:       4,
		RefreshEvery: 5 * time.Millisecond,
	})
	defer srv.Close()
	coalescedTime := lookups(srv)
	st := srv.Stats()
	fmt.Printf("64 concurrent cold lookups:\n")
	fmt.Printf("  one request per batch:  %v\n", serialTime.Round(time.Millisecond))
	fmt.Printf("  coalesced:              %v  (%d flushes, %.1fx)\n\n",
		coalescedTime.Round(time.Millisecond), st.Batches,
		float64(serialTime)/float64(coalescedTime))

	// --- 2. Scoped invalidation: warm every vertex, then insert ONE edge.
	for v := 0; v < n; v++ {
		if _, err := srv.Embed(aligraph.ID(v)); err != nil {
			log.Fatal(err)
		}
	}
	before := srv.Cache().Len()
	rng := rand.New(rand.NewSource(7))
	src := aligraph.ID(rng.Intn(n))
	dropped, err := srv.ApplyUpdate([]cluster.RawEdge{
		{Src: src, Dst: aligraph.ID(rng.Intn(n)), Type: 0},
	}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one edge insert at vertex %d: %d of %d cached embeddings invalidated\n",
		src, dropped, before)
	fmt.Printf("  (only vertices whose sampled k-hop neighborhood contains %d; the\n", src)
	fmt.Printf("   other %d keep serving from cache at staleness zero)\n\n", before-dropped)
	if dropped == 0 || dropped >= before {
		log.Fatal("invalidation was not scoped to the touched neighborhood")
	}

	// --- 3. Out-of-band churn: updates pushed straight to a shard, behind
	// the tier's back. No invalidation round covers them, so the refresher's
	// head probes age every entry past the lag budget, and each lookup
	// re-embeds: what is served matches a fresh embed bit for bit.
	s := aligraph.ID(rng.Intn(n))
	p := assign.Part(s)
	for i := 0; i < 5; i++ { // 5 epochs on one shard: past the lag budget
		var ur cluster.UpdateReply
		if err := servers[p].ServeUpdate(cluster.UpdateRequest{Add: []cluster.RawEdge{
			{Src: s, Dst: aligraph.ID(rng.Intn(n)), Type: 0},
		}}, &ur); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // a few refresher ticks
	check := []aligraph.ID{s}
	for i := 0; i < 200; i++ {
		v := aligraph.ID(rng.Intn(n))
		check = append(check, v)
		if _, err := srv.Embed(v); err != nil {
			log.Fatal(err)
		}
	}
	st = srv.Stats()
	fmt.Printf("after 5 out-of-band updates to shard %d and 200 more lookups:\n", p)
	fmt.Printf("  hit rate %.3f, %d refreshed in background, %d stale-rejected\n",
		st.HitRate(), st.Refreshed, st.Cache.StaleRejects)
	for _, v := range check {
		got, err := srv.Embed(v)
		if err != nil {
			log.Fatal(err)
		}
		want, err := trainer.Embed([]aligraph.ID{v})
		if err != nil {
			log.Fatal(err)
		}
		for j, x := range want.Row(0) {
			if got[j] != x {
				log.Fatalf("vertex %d served %v, a fresh embed gives %v: out-of-band churn was served stale", v, got, want.Row(0))
			}
		}
	}
	fmt.Printf("  the touched vertex and the %d looked up all match a fresh embed bit for bit\n", len(check)-1)
	fmt.Println("\nServing stays within the staleness budget without recomputing the")
	fmt.Println("world: updates re-embed only the neighborhoods they touch.")
}
