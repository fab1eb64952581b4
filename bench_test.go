package aligraph

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 5), plus ablations of the system layer's design choices. Each
// benchmark regenerates its experiment through internal/bench and reports
// the formatted table via b.Log, so `go test -bench=. -benchmem`
// reproduces the full evaluation.
//
// Scale: set ALIGRAPH_BENCH_SCALE (default 0.1) to grow or shrink the
// synthetic datasets. The paper's absolute numbers come from a production
// cluster; these runs preserve the comparison shapes.

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/storage"
)

func benchScale() float64 {
	if s := os.Getenv("ALIGRAPH_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.1
}

func BenchmarkTable3_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Table3(benchScale())
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkTable6_AlgoDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Table6(benchScale())
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFigure7_GraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure7(benchScale(), []int{1, 2, 4, 8})
		if i == 0 {
			b.Log("\n" + bench.FormatFigure7(rows) + bench.GOMAXPROCSNote())
		}
	}
}

func BenchmarkFigure8_ImportanceThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure8(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatFigure8(rows))
		}
	}
}

func BenchmarkFigure9_CacheStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure9(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatFigure9(rows))
		}
	}
}

func BenchmarkTable4_Sampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table4(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable4(rows))
		}
	}
}

func BenchmarkTable5_Operators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table5(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable5(rows))
		}
	}
}

func BenchmarkTable7_AHEP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table7(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable7(rows))
		}
	}
}

func BenchmarkFigure10_AHEPCost(b *testing.B) {
	// Figure 10 shares Table 7's cost columns (time and memory per batch).
	for i := 0; i < b.N; i++ {
		rows := bench.Table7(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable7(rows))
		}
	}
}

func BenchmarkTable8_GATNE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table8(benchScale(), false)
		if i == 0 {
			b.Log("\n" + bench.FormatTable8(rows))
		}
	}
}

func BenchmarkTable9_Mixture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table9(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable9(rows))
		}
	}
}

func BenchmarkTable10_Hierarchical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table10(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable10(rows))
		}
	}
}

func BenchmarkTable11_Evolving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table11(benchScale() * 5)
		if i == 0 {
			b.Log("\n" + bench.FormatTable11(rows))
		}
	}
}

func BenchmarkTable12_Bayesian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table12(benchScale())
		if i == 0 {
			b.Log("\n" + bench.FormatTable12(rows))
		}
	}
}

func BenchmarkFigure1_Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		rows := bench.Figure1(
			bench.Table8(s, false),
			bench.Table9(s),
			bench.Table10(s),
			bench.Table11(s*5),
			bench.Table12(s),
		)
		if i == 0 {
			b.Log("\n" + bench.FormatFigure1(rows))
		}
	}
}

// BenchmarkTrainStep measures one GraphSAGE training step with and without
// the prefetching mini-batch pipeline, locally and against sharded servers
// behind a latency-injecting transport (200µs per call, simulating a
// network round trip). The cluster/prefetch=4 case is the paper's Section
// 4.1 overlap: per-step wall clock should approach pure compute because
// sampling RPCs for future batches run while the optimizer consumes the
// current one.
func BenchmarkTrainStep(b *testing.B) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.05))
	trainCfg := func(depth int) TrainConfig {
		cfg := DefaultTrainConfig()
		cfg.HopNums = []int{3, 2}
		cfg.Batch = 32
		cfg.UseAttrs = true
		cfg.Pipeline = PipelineConfig{Depth: depth, Workers: 4}
		return cfg
	}
	run := func(b *testing.B, trainer *Trainer) {
		b.Helper()
		defer trainer.Close()
		if _, err := trainer.Train(2); err != nil { // warm lazy pools and caches
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := trainer.Train(b.N); err != nil {
			b.Fatal(err)
		}
	}

	for _, depth := range []int{0, 4} {
		b.Run(fmt.Sprintf("local/prefetch=%d", depth), func(b *testing.B) {
			p := NewPlatform(g, 1)
			run(b, p.NewGraphSAGE(trainCfg(depth)))
		})
	}

	// Cluster variants: shards x prefetch, over 200µs per-call latency.
	// Every scatter round reaches its shards at once (a hop costs max RTT),
	// and prefetch overlaps the rounds with compute.
	for _, shards := range []int{2, 4} {
		assign, err := (partition.HashPartitioner{}).Partition(g, shards)
		if err != nil {
			b.Fatal(err)
		}
		servers := cluster.FromGraph(g, assign)
		for _, depth := range []int{0, 4} {
			b.Run(fmt.Sprintf("cluster/shards=%d/prefetch=%d", shards, depth), func(b *testing.B) {
				tr := cluster.NewLatencyTransport(cluster.NewLocalTransport(servers), 200*time.Microsecond)
				cp := NewClusterPlatform(assign, tr, storage.NewImportanceCacheTopFraction(g, 2, 0.2), 1)
				trainer, err := cp.NewGraphSAGE(trainCfg(depth))
				if err != nil {
					b.Fatal(err)
				}
				run(b, trainer)
			})
		}
	}
}

func BenchmarkAblation_Partitioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.AblationPartitioners(benchScale(), 4)
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkAblation_NegativeSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.AblationNegativeSampling(10000, 50000)
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}
