package serve

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// benchFixture is clusterFixture behind a per-RPC latency transport, so the
// benchmark reflects what coalescing actually amortizes: the sampling
// fan-out's network round trips.
func benchServer(b *testing.B, n int, maxBatch, cacheCap int) *Server {
	b.Helper()
	_, cl, tr := clusterFixtureT(b, n, func(inner cluster.Caller) cluster.Transport {
		return cluster.NewLatencyTransport(inner, 100*time.Microsecond)
	})
	srv := New(tr, cl, Config{
		FlushWindow: 200 * time.Microsecond,
		MaxBatch:    maxBatch,
		CacheCap:    cacheCap,
		EdgeType:    0,
	})
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkServe measures the serving tier at concurrency 8 and reports
// qps, p50/p99 latency, cache hit rate and stale rejects. The serial case
// (MaxBatch=1, cache disabled) is the one-request-per-batch baseline the
// coalesced case must beat by >= 2x; the cached case shows the steady-state
// hot-set hit path.
func BenchmarkServe(b *testing.B) {
	modes := []struct {
		name     string
		maxBatch int
		cacheCap int
	}{
		{"serial", 1, 1},
		{"coalesced", 64, 1},
		{"cached", 64, 4096},
	}
	const n = 64
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			srv := benchServer(b, n, m.maxBatch, m.cacheCap)
			// One warm call outside the clock (builds lazy client state).
			if _, err := srv.Embed(0); err != nil {
				b.Fatal(err)
			}

			var mu sync.Mutex
			var lats []time.Duration
			var seed atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				var local []time.Duration
				for pb.Next() {
					v := graph.ID(rng.Intn(n))
					t0 := time.Now()
					if _, err := srv.Embed(v); err != nil {
						b.Error(err)
						return
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
			b.StopTimer()

			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "qps")
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			if len(lats) > 0 {
				b.ReportMetric(float64(lats[len(lats)/2].Microseconds()), "p50-us")
				b.ReportMetric(float64(lats[len(lats)*99/100].Microseconds()), "p99-us")
			}
			st := srv.Stats()
			b.ReportMetric(st.HitRate(), "hit-rate")
			b.ReportMetric(float64(st.Cache.StaleRejects), "stale-rejects")
		})
	}
}
