package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// This file holds the ablation benchmarks called out in DESIGN.md: they
// probe the design choices of the system layer rather than reproducing a
// specific paper figure.

// AblationLockFree compares the lock-free request-flow buckets against a
// single global mutex for mixed read/update traffic.
func AblationLockFree(ops int, producers int) string {
	state := make([]int64, 1024)

	// Mutex variant.
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < ops/producers; i++ {
				v := graph.ID((p*31 + i) % 1024)
				mu.Lock()
				state[v]++
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	mutexTime := time.Since(start)

	// Bucket variant.
	for i := range state {
		state[i] = 0
	}
	buckets := sampling.NewBuckets(4)
	start = time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < ops/producers; i++ {
				v := graph.ID((p*31 + i) % 1024)
				buckets.Submit(v, func() { state[v]++ })
			}
		}(p)
	}
	wg.Wait()
	buckets.Close()
	bucketTime := time.Since(start)

	return fmt.Sprintf("Ablation: lock-free buckets %v vs global mutex %v over %d ops (%d producers)\n",
		bucketTime.Round(time.Microsecond), mutexTime.Round(time.Microsecond), ops, producers)
}

// AblationAttrStorage reports the space saving of the deduplicated
// attribute indices versus inline storage.
func AblationAttrStorage(scale float64) string {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(scale))
	s := storage.BuildStore(g)
	rep := s.Space()
	return fmt.Sprintf(
		"Ablation: attribute storage inline %.1fMB vs dedup %.1fMB (%.1fx, %d distinct vectors)\n",
		float64(rep.InlineBytes)/1e6, float64(rep.DedupBytes)/1e6, rep.Ratio, rep.Distinct)
}

// AblationPartitioners compares the cut quality of the built-in
// partitioners on a Taobao-sim graph.
func AblationPartitioners(scale float64, p int) string {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(scale))
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: partitioner cut fraction (p=%d)\n", p)
	fmt.Fprintf(&b, "%-12s %10s %10s %12s\n", "partitioner", "cut", "imbalance", "time")
	for _, name := range []string{"hash", "metis", "streaming", "edgecut"} {
		pt, err := partition.ByName(name)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		a, err := pt.Partition(g, p)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%-12s %9.1f%% %10.2f %12s\n",
			name, 100*a.CutFraction(g), a.Imbalance(), time.Since(start).Round(time.Microsecond))
	}
	// Edge-placement partitioners: report replication factor instead.
	for _, ep := range []partition.EdgePartitioner{partition.VertexCut{}, partition.Grid2D{}} {
		start := time.Now()
		ea, err := ep.PartitionEdges(g, p)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%-12s repl=%.2f %22s\n", ep.Name(), ea.ReplicationFactor(), time.Since(start).Round(time.Microsecond))
	}
	return b.String()
}

// AblationNegativeSampling compares alias-table negative sampling against a
// naive linear scan over the cumulative distribution.
func AblationNegativeSampling(n, draws int) string {
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}

	alias := sampling.NewAlias(weights)
	start := time.Now()
	for i := 0; i < draws; i++ {
		alias.Draw(rng)
	}
	aliasTime := time.Since(start)

	// Linear scan baseline.
	total := 0.0
	for _, w := range weights {
		total += w
	}
	start = time.Now()
	for i := 0; i < draws; i++ {
		target := rng.Float64() * total
		acc := 0.0
		for _, w := range weights {
			acc += w
			if acc >= target {
				break
			}
		}
	}
	linearTime := time.Since(start)

	return fmt.Sprintf("Ablation: negative sampling %d draws over %d candidates — alias %v vs linear %v (%.0fx)\n",
		draws, n, aliasTime.Round(time.Microsecond), linearTime.Round(time.Microsecond),
		float64(linearTime)/float64(aliasTime))
}
