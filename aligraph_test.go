package aligraph

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/storage"
)

func TestPlatformEndToEnd(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	p := NewPlatform(g, 1)

	// Samplers are wired.
	trav := p.Traverse()
	batch := trav.SampleVertices(0, 8)
	if len(batch) != 8 {
		t.Fatal("traverse")
	}
	ctx, err := p.Neighborhood().Sample(0, batch, []int{3})
	if err != nil || len(ctx.Layers[1]) != 24 {
		t.Fatalf("neighborhood: %v", err)
	}
	if negs := p.Negative(0).Sample(batch, 2); len(negs) != 16 {
		t.Fatal("negative")
	}

	// End-to-end training through the facade.
	tc := DefaultTrainConfig()
	tc.HopNums = []int{3, 2}
	tc.Batch = 16
	tr := p.NewGraphSAGE(tc)
	losses, err := tr.Train(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 20 {
		t.Fatal("losses")
	}
	emb, err := tr.Embed(batch)
	if err != nil || emb.Rows != 8 || emb.Cols != tc.Dim {
		t.Fatalf("embed: %v %dx%d", err, emb.Rows, emb.Cols)
	}
	if _, err := tr.Score(batch[0], batch[1]); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformSamplersConcurrent hands out samplers from one Platform to
// many goroutines; each sampler owns an independently seeded rng, so this
// must be race-free (run with -race).
func TestPlatformSamplersConcurrent(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	p := NewPlatform(g, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trav := p.Traverse()
			nbr := p.Neighborhood()
			neg := p.Negative(0)
			for i := 0; i < 20; i++ {
				batch := trav.SampleVertices(0, 8)
				if len(batch) != 8 {
					t.Error("traverse batch")
					return
				}
				if _, err := nbr.Sample(0, batch, []int{3, 2}); err != nil {
					t.Errorf("neighborhood: %v", err)
					return
				}
				if negs := neg.Sample(batch, 2); len(negs) != 16 {
					t.Error("negative batch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClusterPlatformTrains runs the full distributed training path over
// in-process shards: TRAVERSE / NEGATIVE / NEIGHBORHOOD all served by
// server RPCs through the batched client, loss decreasing.
func TestClusterPlatformTrains(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	assign, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := cluster.FromGraph(g, assign)
	tr := cluster.NewLocalTransport(servers, 0, 0)
	cp := NewClusterPlatform(assign, tr, storage.NewImportanceCacheTopFraction(g, 2, 0.2), 1)

	if cp.NumVertices() != g.NumVertices() {
		t.Fatalf("universe %d, want %d", cp.NumVertices(), g.NumVertices())
	}
	ctx, err := cp.Neighborhood().Sample(0, []ID{0, 1, 2}, []int{3})
	if err != nil || len(ctx.Layers[1]) != 9 {
		t.Fatalf("cluster neighborhood: %v", err)
	}

	tc := DefaultTrainConfig()
	tc.HopNums = []int{3, 2}
	tc.Batch = 16
	tc.UseAttrs = true
	trainer, err := cp.NewGraphSAGE(tc)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := trainer.Train(40)
	if err != nil {
		t.Fatal(err)
	}
	first, last := 0.0, 0.0
	for _, l := range losses[:10] {
		first += l
	}
	for _, l := range losses[len(losses)-10:] {
		last += l
	}
	if last >= first {
		t.Fatalf("distributed loss did not decrease: %f -> %f", first/10, last/10)
	}
	emb, err := trainer.Embed([]ID{0, 1})
	if err != nil || emb.Rows != 2 || emb.Cols != tc.Dim {
		t.Fatalf("embed: %v", err)
	}
}

// TestClusterPipelineMatchesSyncTraining trains the same sharded GraphSAGE
// twice — synchronous depth 0 and a prefetching pipeline — and requires
// bit-identical loss curves: the pipeline overlaps sampling with compute
// without perturbing a single draw, including the prefetched-attribute path.
// The neighbor cache is static (importance); a replacing LRU would make
// draws depend on cache warm-up timing and only match statistically.
func TestClusterPipelineMatchesSyncTraining(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	assign, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := cluster.FromGraph(g, assign)

	train := func(pl PipelineConfig) []float64 {
		t.Helper()
		tr := cluster.NewLocalTransport(servers, 0, 0)
		cp := NewClusterPlatform(assign, tr, storage.NewImportanceCacheTopFraction(g, 2, 0.2), 1)
		tc := DefaultTrainConfig()
		tc.HopNums = []int{3, 2}
		tc.Batch = 16
		tc.UseAttrs = true
		tc.Pipeline = pl
		trainer, err := cp.NewGraphSAGE(tc)
		if err != nil {
			t.Fatal(err)
		}
		defer trainer.Close()
		losses, err := trainer.Train(25)
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}

	want := train(PipelineConfig{})
	got := train(PipelineConfig{Depth: 4, Workers: 3})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: pipeline loss %g, sync %g", i, got[i], want[i])
		}
	}
}

// TestClusterPipelineRace exercises the full concurrent stack under -race:
// pipeline workers sharing one client, LRU neighbor and attribute caches,
// the consuming trainer, inference mid-flight and Close.
func TestClusterPipelineRace(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	assign, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := cluster.FromGraph(g, assign)
	tr := cluster.NewLocalTransport(servers, 0, 0)
	cp := NewClusterPlatform(assign, tr, storage.NewLRUNeighborCache(g.NumVertices()/5), 1)
	tc := DefaultTrainConfig()
	tc.HopNums = []int{3, 2}
	tc.Batch = 16
	tc.UseAttrs = true
	tc.Pipeline = PipelineConfig{Depth: 3, Workers: 4}
	trainer, err := cp.NewGraphSAGE(tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(15); err != nil {
		t.Fatal(err)
	}
	// Inference while the producers are still prefetching ahead.
	if _, err := trainer.Embed([]ID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := trainer.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewPlatformCostIndependentOfGraph: a local Platform builds nothing
// per vertex (no partition, attribute index or neighbor cache), so
// constructing one allocates the same at every graph size. Allocation
// counts, unlike wall clock, are exact on any host.
func TestNewPlatformCostIndependentOfGraph(t *testing.T) {
	allocs := func(scale float64) float64 {
		g := dataset.Taobao(dataset.TaobaoSmallConfig(scale))
		return testing.AllocsPerRun(3, func() { NewPlatform(g, 1) })
	}
	small, large := allocs(0.5), allocs(2)
	if small != large {
		t.Fatalf("NewPlatform allocates %.0f times at scale 0.5 but %.0f at scale 2: its cost grows with the graph", small, large)
	}
}

func TestSchemaFacade(t *testing.T) {
	s, err := NewSchema([]string{"user", "item"}, []string{"click"})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(s, true)
	u := b.AddVertex(0, nil)
	i := b.AddVertex(1, nil)
	b.AddEdge(u, i, 0, 1)
	g := b.Finalize()
	if g.NumEdges() != 1 {
		t.Fatal("facade build")
	}
}

// failingAttrs fails every Attrs call and passes the rest through.
type failingAttrs struct {
	cluster.Caller
	fails atomic.Int64
}

func (f *failingAttrs) Call(ctx context.Context, part int, m cluster.Method, req, reply any) error {
	if m == cluster.MAttrs {
		f.fails.Add(1)
		return errors.New("attrs unavailable")
	}
	return f.Caller.Call(ctx, part, m, req, reply)
}

// TestClusterEmbedSurfacesAttrFetchError: inference on a UseAttrs cluster
// trainer fetches its hop-0 attribute rows itself, and a failed fetch must
// fail the embed rather than encode zero rows into a vector that looks
// healthy.
func TestClusterEmbedSurfacesAttrFetchError(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	assign, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	failing := &failingAttrs{Caller: cluster.NewLocalTransport(cluster.FromGraph(g, assign), 0, 0)}
	cp := NewClusterPlatform(assign, cluster.NewLatencyTransport(failing, 0), nil, 1)
	tc := DefaultTrainConfig()
	tc.HopNums = []int{3, 2}
	tc.UseAttrs = true
	trainer, err := cp.NewGraphSAGE(tc)
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	if emb, _, err := trainer.EmbedCtx([]ID{0, 1}); err == nil {
		t.Fatalf("EmbedCtx with every Attrs call failing returned %dx%d rows and no error", emb.Rows, emb.Cols)
	}
	if _, err := trainer.Embed([]ID{0, 1}); err == nil {
		t.Fatal("Embed with every Attrs call failing returned no error")
	}
	if failing.fails.Load() == 0 {
		t.Fatal("no Attrs call was made; the test proves nothing")
	}
}
