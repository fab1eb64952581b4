// Package bench is the experiment harness: every table and figure of the
// paper's evaluation (Section 5) has a Run function here that generates the
// workload, executes the measurement and returns a formatted report. The
// testing.B wrappers live in the repository root (bench_test.go) and
// cmd/aligraph-bench drives the same functions from the command line.
//
// Scale: every experiment takes a scale factor (1.0 = the default laptop
// calibration). Absolute numbers differ from the paper — our substrate is a
// simulator, not Alibaba's production cluster — but each experiment
// preserves the paper's comparison shape (who wins, by what rough factor).
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// Table3 reports the system dataset census (paper Table 3).
func Table3(scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: system datasets (scale %.2f)\n", scale)
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %14s %10s %10s\n",
		"dataset", "#user", "#item", "#user-item", "#item-item", "u-attrs", "i-attrs")
	for _, d := range []struct {
		name string
		cfg  dataset.TaobaoConfig
	}{
		{"Taobao-small", dataset.TaobaoSmallConfig(scale)},
		{"Taobao-large", dataset.TaobaoLargeConfig(scale)},
	} {
		st := dataset.Census(dataset.Taobao(d.cfg))
		fmt.Fprintf(&b, "%-14s %12d %12d %14d %14d %10d %10d\n",
			d.name, st.UserVertices, st.ItemVertices, st.UserItemEdges, st.ItemItemEdges,
			st.UserAttrs, st.ItemAttrs)
	}
	return b.String()
}

// Figure7Row is one point of the graph-building experiment.
type Figure7Row struct {
	Dataset string
	Workers int
	Elapsed time.Duration
}

// Figure7 measures graph build time versus worker count (paper Figure 7:
// build time decreases with workers; large graphs build in minutes, not
// PowerGraph's hours).
func Figure7(scale float64, workerCounts []int) []Figure7Row {
	if workerCounts == nil {
		workerCounts = []int{1, 2, 4, 8}
	}
	var rows []Figure7Row
	for _, d := range []struct {
		name string
		cfg  dataset.TaobaoConfig
	}{
		{"Taobao-small", dataset.TaobaoSmallConfig(scale)},
		{"Taobao-large", dataset.TaobaoLargeConfig(scale)},
	} {
		g := dataset.Taobao(d.cfg)
		vs, es := cluster.Extract(g)
		for _, w := range workerCounts {
			parts := w
			start := time.Now()
			cluster.BuildServers(vs, es, cluster.BuildConfig{
				NumPartitions: parts,
				NumWorkers:    w,
				NumEdgeTypes:  g.Schema().NumEdgeTypes(),
				Assign:        func(v graph.ID) int { return int(v) % parts },
			})
			rows = append(rows, Figure7Row{d.name, w, time.Since(start)})
		}
	}
	return rows
}

// FormatFigure7 renders the rows.
func FormatFigure7(rows []Figure7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: graph building time vs workers\n")
	fmt.Fprintf(&b, "%-14s %8s %12s\n", "dataset", "workers", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %12s\n", r.Dataset, r.Workers, r.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// Figure8Row is one point of the cache-rate sweep.
type Figure8Row struct {
	Threshold float64
	CacheRate float64
}

// Figure8 sweeps the importance threshold and reports the fraction of
// vertices whose 2-hop neighborhoods would be cached (paper Figure 8: the
// rate falls steeply until ~0.2 then flattens, because importance is
// power-law distributed). Selection uses depth-1 importance: at simulation
// scale 2-hop neighborhood sets saturate toward the whole graph, washing
// their in/out ratios toward 1 — a scale artifact the production graph
// does not have (see EXPERIMENTS.md).
func Figure8(scale float64) []Figure8Row {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(scale))
	n := g.NumVertices()
	var rows []Figure8Row
	for _, tau := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45} {
		sel := storage.SelectImportant(g, 1, tau)
		rows = append(rows, Figure8Row{tau, float64(len(sel)) / float64(n)})
	}
	return rows
}

// FormatFigure8 renders the sweep.
func FormatFigure8(rows []Figure8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: cached-vertex percentage vs importance threshold\n")
	fmt.Fprintf(&b, "%10s %12s\n", "threshold", "cache-rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %11.1f%%\n", r.Threshold, 100*r.CacheRate)
	}
	return b.String()
}

// Figure9Row is one point of the cache-strategy comparison: what the
// sampling workload sent to shards other than the client's own.
type Figure9Row struct {
	Strategy       string
	CachedFrac     float64
	RemoteVertices int64 // vertices carried by remote SampleNeighbors RPCs
	RemoteRPCs     int64 // remote SampleNeighbors RPCs
}

// NewRandomCache is the Figure 9 random baseline: a static cache of the
// neighbor lists of a frac fraction of vertices drawn with rng. Randomly
// selected vertices are unlikely to be the hubs other vertices route
// through, which is why it loses to the importance cache.
func NewRandomCache(g *graph.Graph, frac float64, rng *rand.Rand) *storage.StaticCache {
	perm := rng.Perm(g.NumVertices())
	vs := make([]graph.ID, int(frac*float64(len(perm))))
	for i := range vs {
		vs[i] = graph.ID(perm[i])
	}
	return storage.NewStaticCache(g, "random", vs)
}

// SampleTraffic is a Transport that counts the SampleNeighbors RPCs it
// forwards to parts other than Home, and the vertices they carry. Home -1
// counts every part.
type SampleTraffic struct {
	cluster.Transport
	Home           int
	RPCs, Vertices atomic.Int64
}

func (t *SampleTraffic) SampleNeighbors(part int, req cluster.SampleRequest, reply *cluster.SampleReply) error {
	if part != t.Home {
		t.RPCs.Add(1)
		t.Vertices.Add(int64(len(req.Vertices)))
	}
	return t.Transport.SampleNeighbors(part, req, reply)
}

// Figure9Workload is the sampling Figure 9 measures: 50 batches of 16
// users, picked with a fixed seed, each expanded by [5,3] NEIGHBORHOOD
// draws from src under fixed hop seeds.
func Figure9Workload(src sampling.Source, users []graph.ID) error {
	nbr := sampling.NewNeighborhood(src, nil)
	rng := rand.New(rand.NewSource(1))
	srng := sampling.NewRng(1)
	batch := make([]graph.ID, 16)
	var ctx sampling.Context
	for i := 0; i < 50; i++ {
		for j := range batch {
			batch[j] = users[rng.Intn(len(users))]
		}
		if err := nbr.SampleInto(&ctx, 0, batch, []int{5, 3}, srng); err != nil {
			return err
		}
	}
	return nil
}

// Figure9 compares the importance cache against random and LRU caches at
// matched cache sizes, and against no cache, on the path training runs:
// Figure9Workload through a Client over 4 hash partitions, counting what
// reaches shards other than the client's own (paper Figure 9: importance
// caching saves 40-60% versus the baselines). Draws are vertex-keyed, so
// the rows differ only in where a draw executes.
func Figure9(scale float64) []Figure9Row {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(scale))
	a, err := partition.HashPartitioner{}.Partition(g, 4)
	if err != nil {
		panic(err)
	}
	servers := cluster.FromGraph(g, a)
	users := g.VerticesOfType(0)

	run := func(name string, cache storage.NeighborCache, frac float64) Figure9Row {
		tr := &SampleTraffic{Transport: cluster.NewLocalTransport(servers, 0), Home: 0}
		if err := Figure9Workload(cluster.NewClient(a, tr, cache), users); err != nil {
			panic(err)
		}
		return Figure9Row{name, frac, tr.Vertices.Load(), tr.RPCs.Load()}
	}

	rows := []Figure9Row{run("none", storage.NoCache{}, 0)}
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4} {
		rows = append(rows, run("importance", storage.NewImportanceCacheTopFraction(g, 2, frac), frac))
		rng := rand.New(rand.NewSource(2))
		rows = append(rows, run("random", NewRandomCache(g, frac, rng), frac))
		capEntries := int(frac * float64(g.NumVertices()))
		rows = append(rows, run("lru", storage.NewLRUNeighborCache(capEntries), frac))
	}
	return rows
}

// FormatFigure9 renders the comparison.
func FormatFigure9(rows []Figure9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: remote sampling traffic of [5,3] NEIGHBORHOOD batches vs cached fraction, by strategy\n")
	fmt.Fprintf(&b, "%-12s %8s %16s %12s\n", "strategy", "cached", "remote-vertices", "remote-rpcs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7.0f%% %16d %12d\n", r.Strategy, 100*r.CachedFrac, r.RemoteVertices, r.RemoteRPCs)
	}
	return b.String()
}

// Table4Row is one sampler latency measurement.
type Table4Row struct {
	Dataset  string
	Sampler  string
	PerBatch time.Duration
}

// Table4 measures the three sampler classes with batch size 512 (paper
// Table 4: all samplers finish within tens of milliseconds and grow slowly
// with graph size).
func Table4(scale float64) []Table4Row {
	var rows []Table4Row
	for _, d := range []struct {
		name string
		cfg  dataset.TaobaoConfig
	}{
		{"Taobao-small", dataset.TaobaoSmallConfig(scale)},
		{"Taobao-large", dataset.TaobaoLargeConfig(scale)},
	} {
		g := dataset.Taobao(d.cfg)
		rng := rand.New(rand.NewSource(1))
		const batch = 512
		const iters = 20

		// Warm the eligible-vertex pool outside the timed region; Table 4
		// reports steady-state per-batch cost, not the one-time scan.
		trav := sampling.NewTraverse(g, rng)
		vs := trav.SampleVertices(0, batch)
		start := time.Now()
		for i := 0; i < iters; i++ {
			trav.SampleVertices(0, batch)
		}
		rows = append(rows, Table4Row{d.name, "TRAVERSE", time.Since(start) / iters})

		// NEIGHBORHOOD runs through the steady-state engine: a reused
		// Context and a per-worker Rng, as a training loop would.
		nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), rng)
		hopNums := []int{5, 3}
		var ctx sampling.Context
		srng := sampling.NewRng(1)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := nbr.SampleInto(&ctx, 0, vs, hopNums, srng); err != nil {
				panic(err)
			}
		}
		rows = append(rows, Table4Row{d.name, "NEIGHBORHOOD", time.Since(start) / iters})

		neg := sampling.NewNegative(g, 0, rng)
		start = time.Now()
		for i := 0; i < iters; i++ {
			neg.Sample(vs, 4)
		}
		rows = append(rows, Table4Row{d.name, "NEGATIVE", time.Since(start) / iters})
	}
	return rows
}

// FormatTable4 renders the measurements.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: sampling time per batch of 512\n")
	fmt.Fprintf(&b, "%-14s %-14s %12s\n", "dataset", "sampler", "time/batch")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14s %12s\n", r.Dataset, r.Sampler, r.PerBatch.Round(time.Microsecond))
	}
	return b.String()
}

// GOMAXPROCSNote is included in reports so recorded numbers carry their
// hardware context.
func GOMAXPROCSNote() string {
	return fmt.Sprintf("(GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
}
