// Command aligraph-serve runs the online inference tier against live
// aligraph-server shards: it bootstraps graph-free from the cluster, trains
// a GraphSAGE encoder for a warm-up number of steps, then answers embedding
// / link-score / top-k lookups with request coalescing and an epoch-aware
// embedding cache (see internal/serve).
//
// Lookups and out-of-band churn go through one retry transport
// (cluster.DefaultCallPolicy), so they share its per-shard breakers: an
// outage detected by either side fast-fails both instead of each
// re-probing the dead shard. The coalescer and the embedding cache run at
// the serve.Config defaults (1 ms flush window, 64 vertices per batch, a
// staleness budget of 8 epochs, 4096 cached embeddings).
//
// With -load N the built-in generator issues N lookups at -concurrency
// workers — optionally against live churn (-churn in-band|out-of-band) —
// prints qps, p50/p99 latency, cache hit rate and staleness counters, and
// exits (the CI smoke mode). With -http the same surface is served over
// HTTP: /embed?v=3, /score?u=1&v=2, /topk?src=1&k=5, /stats. -metrics-addr
// exposes the full observability registry (client RPC and per-hop sampling
// metrics plus the tier's lookup/flush histograms) at /metrics and
// /metrics.json; -stats prints the client's per-method and per-(edge type,
// hop) breakdown at shutdown.
//
// Usage:
//
//	aligraph-serve -cluster 127.0.0.1:7701,127.0.0.1:7702 -train-steps 50 \
//	    -load 2000 -concurrency 8 -churn in-band
//	aligraph-serve -cluster 127.0.0.1:7701,127.0.0.1:7702 -http :8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/storage"
)

func main() {
	var (
		clusterAddrs = flag.String("cluster", "", "comma-separated graph-server addresses (required)")
		trainSteps   = flag.Int("train-steps", 100, "warm-up training mini-batches before serving")
		dim          = flag.Int("dim", 32, "embedding dimension")
		edgeType     = flag.Int("edge-type", 0, "edge type to embed over")
		useAttrs     = flag.Bool("attrs", true, "feed vertex attributes to the encoder")
		cacheFrac    = flag.Float64("cache", 0.2, "LRU neighbor-cached vertex fraction")
		refresh      = flag.Duration("refresh", 50*time.Millisecond, "background refresher period (0 disables)")
		httpAddr     = flag.String("http", "", "serve HTTP lookups on this address")
		load         = flag.Int("load", 0, "issue N lookups from the built-in generator, print metrics, exit")
		concurrency  = flag.Int("concurrency", 8, "load-generator workers")
		churn        = flag.String("churn", "", "push one synthetic edge update per 10 lookups: 'in-band' (through the tier, scoped invalidation) or 'out-of-band' (directly to shards, refresher-driven)")
		stats        = flag.Bool("stats", false, "print per-RPC client metrics (per-method and per-hop) at shutdown")
		metricsAddr  = flag.String("metrics-addr", "", "serve observability on this address (/metrics text, /metrics.json, /debug/pprof/)")
	)
	flag.Parse()
	if *clusterAddrs == "" {
		log.Fatal("-cluster is required (aligraph-serve is the inference tier of a live cluster)")
	}
	if *load == 0 && *httpAddr == "" {
		log.Fatal("nothing to do: pass -load N and/or -http addr")
	}

	addrs := strings.Split(*clusterAddrs, ",")
	rpcTr, err := cluster.DialRPC(addrs)
	if err != nil {
		log.Fatal(err)
	}
	tr := cluster.NewRetryTransport(rpcTr, len(addrs), cluster.DefaultCallPolicy(), 1)
	defer tr.Close()

	assign, schema, err := cluster.Bootstrap(tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	numVertices := len(assign.Of)
	var cache storage.NeighborCache
	if *cacheFrac > 0 {
		cache = storage.NewLRUNeighborCache(int(*cacheFrac * float64(numVertices)))
	}
	cp := aligraph.NewClusterPlatform(assign, tr, cache, 1)
	fmt.Printf("cluster: %d shards, %d vertices, %d vertex / %d edge types (bootstrapped)\n",
		assign.P, numVertices, schema.NumVertexTypes(), schema.NumEdgeTypes())

	// One registry for the whole process: the cluster client's RPC and
	// per-(edge type, hop) sampling metrics plus the serving tier's counters.
	reg := obs.NewRegistry()
	cp.Client.RegisterObs(reg)
	if *stats {
		defer func() { fmt.Printf("client metrics:\n%s", cp.Client.Metrics()) }()
	}

	tc := aligraph.DefaultTrainConfig()
	tc.Dim = *dim
	tc.EdgeType = aligraph.EdgeType(*edgeType)
	tc.UseAttrs = *useAttrs
	trainer, err := cp.NewGraphSAGE(tc)
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()
	start := time.Now()
	losses, err := trainer.Train(*trainSteps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm-up: %d steps in %v, loss %.4f -> %.4f\n",
		*trainSteps, time.Since(start).Round(time.Millisecond), losses[0], losses[len(losses)-1])

	srv := cp.Serve(trainer, aligraph.ServeConfig{RefreshEvery: *refresh})
	defer srv.Close()
	trainer.RegisterObs(reg)
	srv.RegisterObs(reg)
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer msrv.Close()
		fmt.Printf("metrics: http://%s/metrics\n", msrv.Addr)
	}

	if *load > 0 {
		runLoad(srv, cp, numVertices, aligraph.EdgeType(*edgeType), *load, *concurrency, *churn)
		if *httpAddr == "" {
			return
		}
	}
	serveHTTP(srv, *httpAddr, numVertices)
}

// runLoad drives the tier at the requested concurrency, optionally pushing
// synthetic churn, and prints the serving metrics the CI smoke asserts on.
func runLoad(srv *aligraph.InferenceServer, cp *aligraph.ClusterPlatform,
	numVertices int, et aligraph.EdgeType, load, concurrency int, churn string) {
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
		mu     sync.Mutex
		lats   []time.Duration
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []time.Duration
			for {
				i := issued.Add(1)
				if i > int64(load) {
					break
				}
				v := aligraph.ID(rng.Intn(numVertices))
				t0 := time.Now()
				var err error
				if i%5 == 0 {
					_, err = srv.Score(v, aligraph.ID(rng.Intn(numVertices)))
				} else {
					_, err = srv.Embed(v)
				}
				if err != nil {
					log.Fatalf("lookup: %v", err)
				}
				local = append(local, time.Since(t0))
				if churn != "" && i%10 == 0 {
					add := []cluster.RawEdge{{
						Src:  aligraph.ID(rng.Intn(numVertices)),
						Dst:  aligraph.ID(rng.Intn(numVertices)),
						Type: et,
					}}
					switch churn {
					case "in-band":
						if _, err := srv.ApplyUpdate(add, nil, nil); err != nil {
							log.Fatalf("in-band update: %v", err)
						}
					case "out-of-band":
						// Straight to the owning shard, bypassing the
						// tier: it only learns of the update from the
						// refresher's head probes.
						var ur cluster.UpdateReply
						p := cp.Client.Assign.Part(add[0].Src)
						if err := cp.Client.T.Update(p, cluster.UpdateRequest{Add: add}, &ur); err != nil {
							log.Fatalf("out-of-band update: %v", err)
						}
					default:
						log.Fatalf("unknown -churn mode %q", churn)
					}
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(int64(w + 1))
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st := srv.Stats()
	fmt.Printf("load: %d lookups, %d workers, %v\n", load, concurrency, elapsed.Round(time.Millisecond))
	fmt.Printf("  qps        %.0f\n", float64(load)/elapsed.Seconds())
	if len(lats) > 0 {
		fmt.Printf("  p50        %v\n", lats[len(lats)/2].Round(time.Microsecond))
		fmt.Printf("  p99        %v\n", lats[len(lats)*99/100].Round(time.Microsecond))
	}
	fmt.Printf("  hit-rate   %.3f (%d hits / %d requests)\n", st.HitRate(), st.Cache.Hits, st.Requests)
	fmt.Printf("  batches    %d (%d vertices embedded, %.1f per flush)\n",
		st.Batches, st.Embedded, float64(st.Embedded)/float64(max64(st.Batches, 1)))
	fmt.Printf("  staleness  %d stale-rejects, %d invalidated, %d refreshed\n",
		st.Cache.StaleRejects, st.Invalidated, st.Refreshed)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// serveHTTP exposes the lookup surface over HTTP until the process dies.
func serveHTTP(srv *aligraph.InferenceServer, addr string, numVertices int) {
	vertex := func(r *http.Request, key string) (aligraph.ID, error) {
		n, err := strconv.Atoi(r.URL.Query().Get(key))
		if err != nil || n < 0 || n >= numVertices {
			return 0, fmt.Errorf("bad vertex %q", r.URL.Query().Get(key))
		}
		return aligraph.ID(n), nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/embed", func(w http.ResponseWriter, r *http.Request) {
		v, err := vertex(r, "v")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		vec, err := srv.Embed(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(vec)
	})
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		u, err1 := vertex(r, "u")
		v, err2 := vertex(r, "v")
		if err1 != nil || err2 != nil {
			http.Error(w, "need u and v", http.StatusBadRequest)
			return
		}
		s, err := srv.Score(u, v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(s)
	})
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		src, err := vertex(r, "src")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		k, _ := strconv.Atoi(r.URL.Query().Get("k"))
		if k <= 0 {
			k = 10
		}
		var cands []aligraph.ID
		if cs := r.URL.Query().Get("cands"); cs != "" {
			for _, c := range strings.Split(cs, ",") {
				n, err := strconv.Atoi(c)
				if err != nil || n < 0 || n >= numVertices {
					http.Error(w, fmt.Sprintf("bad candidate %q", c), http.StatusBadRequest)
					return
				}
				cands = append(cands, aligraph.ID(n))
			}
		} else {
			for v := 0; v < numVertices; v++ {
				if aligraph.ID(v) != src {
					cands = append(cands, aligraph.ID(v))
				}
			}
		}
		top, err := srv.TopK(src, cands, k)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(top)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(srv.Stats())
	})
	fmt.Printf("serving lookups on %s\n", addr)
	log.Fatal(http.ListenAndServe(addr, mux))
}
