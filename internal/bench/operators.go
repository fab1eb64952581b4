package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/operator"
	"repro/internal/sampling"
)

// Table5Result compares the AGGREGATE/COMBINE pipeline with and without the
// intermediate-vector materialization cache of Section 3.4.
type Table5Result struct {
	Dataset string
	Without time.Duration // per mini-batch, recomputing every occurrence
	With    time.Duration // per mini-batch, sharing ĥ^(k) per distinct vertex
	Speedup float64
	// VecsWithout and VecsWith count the hop vectors ĥ^(k), k >= 1, one
	// mini-batch computes without and with the cache: the work
	// materialization removes, counted from the context rather than timed.
	VecsWithout, VecsWith int
}

// Table5 measures the operator optimization (paper Table 5: an order of
// magnitude speedup from caching intermediate embedding vectors). The
// workload is a hub-heavy sampled context where the same hot vertices
// recur throughout the mini-batch, which is exactly the redundancy the
// materialization removes.
func Table5(scale float64) []Table5Result {
	var out []Table5Result
	for _, d := range []struct {
		name string
		cfg  dataset.TaobaoConfig
	}{
		{"Taobao-small", dataset.TaobaoSmallConfig(scale)},
		{"Taobao-large", dataset.TaobaoLargeConfig(scale)},
	} {
		g := dataset.Taobao(d.cfg)
		rng := rand.New(rand.NewSource(1))

		feat := core.NewTableFeatures("emb", g.NumVertices(), 32, rng)
		enc := &core.Encoder{Features: feat}
		in := 32
		for k := 0; k < 2; k++ {
			enc.Agg = append(enc.Agg, operator.NewMeanAggregator("agg", in, 32, rng))
			enc.Comb = append(enc.Comb, operator.NewConcatCombiner("comb", in, 32, 32, rng))
			in = 32
		}

		trav := sampling.NewTraverse(g, rng)
		nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), rng)
		batch := trav.SampleVertices(0, 64)
		ctx, err := nbr.Sample(0, batch, []int{10, 5})
		if err != nil {
			panic(err)
		}

		const iters = 10
		enc.Materialize = false
		start := time.Now()
		for i := 0; i < iters; i++ {
			t := nn.NewTape()
			enc.Encode(t, ctx)
		}
		without := time.Since(start) / iters

		enc.Materialize = true
		start = time.Now()
		for i := 0; i < iters; i++ {
			t := nn.NewTape()
			enc.Encode(t, ctx)
		}
		with := time.Since(start) / iters

		vecsWithout, vecsWith := hopVectors(ctx)
		out = append(out, Table5Result{
			Dataset: d.name, Without: without, With: with,
			Speedup:     float64(without) / float64(with),
			VecsWithout: vecsWithout, VecsWith: vecsWith,
		})
	}
	return out
}

// hopVectors counts the hop vectors Algorithm 1 computes over ctx: hop k
// needs a vector for every vertex of layers 0..L-1-k — one per occurrence
// without materialization, one per distinct vertex of each layer with it
// (Section 3.4).
func hopVectors(ctx *sampling.Context) (without, with int) {
	L := len(ctx.Layers)
	for k := 1; k < L; k++ {
		for l := 0; l <= L-1-k; l++ {
			without += len(ctx.Layers[l])
			distinct := make(map[graph.ID]struct{})
			for _, v := range ctx.Layers[l] {
				distinct[v] = struct{}{}
			}
			with += len(distinct)
		}
	}
	return without, with
}

// FormatTable5 renders the comparison.
func FormatTable5(rows []Table5Result) string {
	var b strings.Builder
	b.WriteString("Table 5: operator time per mini-batch, w/o vs w/ materialization cache\n")
	fmt.Fprintf(&b, "%-14s %14s %14s %10s %16s\n", "dataset", "w/o cache", "w/ cache", "speedup", "hop vecs w/o:w/")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14s %14s %9.1fx %16s\n",
			r.Dataset, r.Without.Round(time.Microsecond), r.With.Round(time.Microsecond), r.Speedup,
			fmt.Sprintf("%d:%d", r.VecsWithout, r.VecsWith))
	}
	return b.String()
}

// Table6 reports the algorithm-evaluation dataset census (paper Table 6).
func Table6(scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: algorithm datasets (scale %.2f)\n", scale)
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s\n", "dataset", "#vertices", "#edges", "v-types", "e-types")
	am := dataset.Census(dataset.Amazon(scale))
	fmt.Fprintf(&b, "%-14s %10d %10d %8d %8d\n", "Amazon", am.Vertices, am.Edges, am.VertexTypes, am.EdgeTypes)
	cfg := dataset.TaobaoSmallConfig(scale)
	cfg.ItemItemEdges = 0 // Table 6's Taobao-small has the 4 behaviour types
	ts := dataset.Census(dataset.Taobao(cfg))
	fmt.Fprintf(&b, "%-14s %10d %10d %8d %8d\n", "Taobao-small", ts.Vertices, ts.Edges, ts.VertexTypes, ts.EdgeTypes)
	return b.String()
}
