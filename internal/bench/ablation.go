package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/sampling"
)

// This file holds the ablation benchmarks: they probe design choices of
// the system layer rather than reproducing a specific paper figure.

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
