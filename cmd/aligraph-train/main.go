// Command aligraph-train trains a GraphSAGE-style encoder on a TSV graph
// (or a generated Taobao-sim with -demo) through the public API and writes
// the learned embeddings as TSV (id \t v1,v2,...).
//
// With -cluster the trainer runs against live aligraph-server shards: the
// worker starts graph-free — the partition assignment and schema come from
// the cluster's Bootstrap RPC — and all sampling (TRAVERSE edge batches,
// NEGATIVE pools, NEIGHBORHOOD expansion via the batched SampleNeighbors
// RPC) and attribute fetches go over the wire, with hot-vertex neighbor and
// attribute LRUs client-side. -prefetch N assembles N mini-batches ahead of
// the optimizer on two parallel workers, overlapping graph-service latency
// with the forward/backward pass. The worker dials every shard at startup
// and retries under cluster.DefaultCallPolicy; each scatter round reaches
// all its shards at once.
//
// With -stream (cluster mode only) the trainer trains on a live, changing
// graph: one synthetic batch of 8 random edges per step is interleaved
// with training batches through the streaming BatchSource, each applied
// batch advances the owning shard's epoch, and every training batch stays
// pinned to one consistent snapshot while the updates land.
//
// -metrics-addr serves the process's observability registry live (/metrics
// text, /metrics.json, /debug/pprof/): cluster-client RPC histograms and
// per-(edge type, hop) sampling lanes, plus pipeline stage timings when
// -prefetch is on. -metrics-out writes the final snapshot as JSON at exit.
//
// Usage:
//
//	aligraph-train -demo -steps 300 -out embeddings.tsv
//	aligraph-train -vertices v.tsv -edges e.tsv \
//	    -vertex-types user,item -edge-types click,buy -dim 64 -out emb.tsv
//	aligraph-train -cluster 127.0.0.1:7701,127.0.0.1:7702 -prefetch 4 -steps 300
//	aligraph-train -cluster 127.0.0.1:7701,127.0.0.1:7702 -stream -prefetch 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The synthetic -stream feed: edges per update batch, and the seed of its
// edge draws.
const (
	streamBatch = 8
	streamSeed  = 7
)

func main() {
	var (
		verticesPath = flag.String("vertices", "", "vertex TSV path")
		edgesPath    = flag.String("edges", "", "edge TSV path")
		vertexTypes  = flag.String("vertex-types", "vertex", "comma-separated vertex type names")
		edgeTypes    = flag.String("edge-types", "edge", "comma-separated edge type names")
		directed     = flag.Bool("directed", true, "treat edges as directed")
		demo         = flag.Bool("demo", false, "generate Taobao-sim instead of reading files")
		scale        = flag.Float64("scale", 0.1, "demo dataset scale")
		dim          = flag.Int("dim", 32, "embedding dimension")
		steps        = flag.Int("steps", 200, "training mini-batches")
		lr           = flag.Float64("lr", 0.02, "learning rate")
		edgeType     = flag.Int("edge-type", 0, "edge type to train on")
		useAttrs     = flag.Bool("attrs", true, "feed vertex attributes to the encoder")
		out          = flag.String("out", "embeddings.tsv", "output embeddings TSV")
		clusterAddrs = flag.String("cluster", "", "comma-separated graph-server addresses; train against live RPC shards")
		cacheFrac    = flag.Float64("cache", 0.2, "LRU neighbor-cached vertex fraction (cluster mode)")
		prefetch     = flag.Int("prefetch", 0, "mini-batches assembled ahead of the optimizer (0 = synchronous)")
		stream       = flag.Bool("stream", false, "interleave synthetic live edge updates with training (cluster mode)")
		negRefresh   = flag.Uint64("neg-refresh", 0, "rebuild the negative pool every N observed update epochs; 0 = frozen pool (cluster mode)")
		stats        = flag.Bool("stats", false, "print per-RPC client metrics after training (cluster mode)")
		metricsAddr  = flag.String("metrics-addr", "", "serve observability on this address (/metrics text, /metrics.json, /debug/pprof/)")
		metricsOut   = flag.String("metrics-out", "", "write a final metrics snapshot (JSON) to this file at exit")
	)
	flag.Parse()
	if *stream && *clusterAddrs == "" {
		log.Fatal("-stream requires -cluster (live updates need graph servers)")
	}

	// One registry names every instrument of this process: the cluster
	// client's per-(edge type, hop) sampling lanes, the pipeline's stage
	// timings, retry/cache gauges. Registered below as the components come up.
	reg := obs.NewRegistry()
	if *metricsOut != "" {
		// Registered first so it runs last, after training and trainer.Close.
		defer func() {
			b, err := reg.Snapshot().JSON()
			if err == nil {
				err = os.WriteFile(*metricsOut, b, 0o644)
			}
			if err != nil {
				log.Printf("metrics-out: %v", err)
			}
		}()
	}
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer msrv.Close()
		fmt.Printf("metrics: http://%s/metrics\n", msrv.Addr)
	}

	cfg := aligraph.DefaultTrainConfig()
	cfg.Dim = *dim
	cfg.LR = *lr
	cfg.EdgeType = aligraph.EdgeType(*edgeType)
	cfg.UseAttrs = *useAttrs
	cfg.Pipeline = aligraph.PipelineConfig{Depth: *prefetch}
	cfg.NegRefresh = *negRefresh

	var trainer *aligraph.Trainer
	if *clusterAddrs != "" {
		// Graph-free worker: the assignment and schema come from the shards.
		// The transport stack is fault-tolerant end to end: the RPC layer
		// redials dropped connections lazily, and the retry layer applies
		// per-call deadlines, bounded backoff, and a per-shard breaker to
		// every idempotent call (cluster.DefaultCallPolicy).
		addrs := strings.Split(*clusterAddrs, ",")
		rpcTr, err := cluster.DialRPC(addrs)
		if err != nil {
			log.Fatal(err)
		}
		// The seed only shapes backoff jitter; idempotency tokens are minted
		// under a per-process random nonce, so many workers sharing these
		// shards never collide in the servers' dedup rings.
		tr := cluster.NewRetryTransport(rpcTr, len(addrs), cluster.DefaultCallPolicy(), 1)
		defer tr.Close()
		assign, schema, err := cluster.Bootstrap(tr, 0)
		if err != nil {
			log.Fatal(err)
		}
		if assign.P != len(addrs) {
			log.Fatalf("cluster reports %d partitions, dialed %d servers", assign.P, len(addrs))
		}
		numVertices := len(assign.Of)
		var cache storage.NeighborCache
		if *cacheFrac > 0 {
			cache = storage.NewLRUNeighborCache(int(*cacheFrac * float64(numVertices)))
		}
		cp := aligraph.NewClusterPlatform(assign, tr, cache, 1)
		cp.Client.RegisterObs(reg)
		if *stats {
			defer func() { fmt.Printf("client metrics:\n%s", cp.Client.Metrics()) }()
		}
		fmt.Printf("cluster: %d shards, %d vertices, %d vertex / %d edge types (bootstrapped)\n",
			assign.P, numVertices, schema.NumVertexTypes(), schema.NumEdgeTypes())
		trainer, err = cp.NewGraphSAGE(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *stream {
			// Live training: queue one synthetic edge-update batch per
			// training step (random edges of the trained type between
			// random vertices, routed to their owning shards) and drain
			// them between batches. Every applied batch advances its
			// shard's epoch; the trainer's per-batch snapshot pins keep
			// each mini-batch consistent regardless.
			feed := cp.NewUpdateStream()
			srng := rand.New(rand.NewSource(streamSeed))
			for i := 0; i < *steps; i++ {
				add := make([]cluster.RawEdge, 0, streamBatch)
				for j := 0; j < streamBatch; j++ {
					add = append(add, cluster.RawEdge{
						Src:  aligraph.ID(srng.Intn(numVertices)),
						Dst:  aligraph.ID(srng.Intn(numVertices)),
						Type: aligraph.EdgeType(*edgeType),
					})
				}
				feed.PushEdges(assign, add, nil, nil)
			}
			ss := trainer.StreamUpdates(feed, aligraph.StreamConfig{MaxPerTick: assign.P})
			fmt.Printf("stream: queued %d update batches (%d edges per step)\n", feed.Pending(), streamBatch)
			defer func() {
				fmt.Printf("stream: applied %d update batches during training\n", ss.Applied())
			}()
		}
	} else {
		var g *aligraph.Graph
		switch {
		case *demo:
			g = dataset.Taobao(dataset.TaobaoSmallConfig(*scale))
		case *verticesPath != "" && *edgesPath != "":
			schema, err := aligraph.NewSchema(strings.Split(*vertexTypes, ","), strings.Split(*edgeTypes, ","))
			if err != nil {
				log.Fatal(err)
			}
			if g, err = graphio.LoadFiles(schema, *directed, *verticesPath, *edgesPath); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatal("need -vertices and -edges, -demo, or -cluster")
		}
		fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		trainer = aligraph.NewPlatform(g, 1).NewGraphSAGE(cfg)
	}
	defer trainer.Close()
	trainer.RegisterObs(reg)
	if *prefetch > 0 {
		fmt.Printf("prefetch: %d batches ahead\n", *prefetch)
	}

	start := time.Now()
	losses, err := trainer.Train(*steps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d steps in %v: loss %.4f -> %.4f\n",
		*steps, time.Since(start).Round(time.Millisecond), losses[0], losses[len(losses)-1])

	emb, err := trainer.EmbedAll()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := graphio.WriteEmbeddings(f, emb, emb.Rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d x %d embeddings to %s\n", emb.Rows, emb.Cols, *out)
}
