package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
)

// newPipelineTestTrainer builds a deterministic trainer over g: all
// randomness descends from seed, so two trainers built with the same
// arguments draw identically.
func newPipelineTestTrainer(g *graph.Graph, seed int64) *LinkTrainer {
	rng := rand.New(rand.NewSource(seed))
	feat := NewTableFeatures("emb", g.NumVertices(), 8, rng)
	enc := newEncoder(g, feat, []int{8, 8}, true, rng)
	cfg := TrainerConfig{EdgeType: 0, HopNums: []int{3, 2}, Batch: 16, NegK: 3, LR: 0.05}
	return NewLinkTrainer(g, enc, cfg, rng)
}

// The prefetching pipeline must be invisible to the optimizer: for a fixed
// seed, every Depth/Workers setting produces the exact loss curve of the
// synchronous depth-0 source, because the scheduler draws all sequential
// randomness in batch order and workers only execute pre-seeded expansions.
func TestPipelineMatchesSyncLossesExactly(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)

	base := newPipelineTestTrainer(g, 42)
	want, err := base.Train(30)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []PipelineConfig{
		{Depth: 1, Workers: 1},
		{Depth: 4, Workers: 3},
	} {
		tr := newPipelineTestTrainer(g, 42)
		pl := NewPipeline(tr, cfg)
		tr.SetSource(pl)
		got, err := tr.Train(30)
		if cerr := pl.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("depth=%d workers=%d: step %d loss %g, sync %g",
					cfg.Depth, cfg.Workers, i, got[i], want[i])
			}
		}
	}
}

// Closing the pipeline mid-production must stop every goroutine it started,
// even while workers are busy and buffers are full.
func TestPipelineCloseLeaksNoGoroutines(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	before := runtime.NumGoroutine()

	tr := newPipelineTestTrainer(g, 7)
	pl := NewPipeline(tr, PipelineConfig{Depth: 4, Workers: 3})
	tr.SetSource(pl)
	if _, err := tr.Train(3); err != nil {
		t.Fatal(err)
	}
	// Close while the producers are running ahead (buffers full or filling).
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := pl.Next(); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Next after Close: %v, want ErrPipelineClosed", err)
	}

	// The wg.Wait in Close returns just before the goroutines finish
	// exiting; give the scheduler a moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines after Close: %d, before: %d", n, before)
	}
}

// Concurrent producers, a consuming trainer and a racing Close must be
// data-race free (run with -race).
func TestPipelineConcurrentTrainAndClose(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 9)
	pl := NewPipeline(tr, PipelineConfig{Depth: 3, Workers: 4})
	tr.SetSource(pl)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := tr.StepNext(); err != nil {
				if !errors.Is(err, ErrPipelineClosed) {
					t.Errorf("step: %v", err)
				}
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		pl.Close()
	}()
	wg.Wait()
}

// The pipeline's free list is a fixed ring: over a long run it must keep
// recycling the same Depth+Workers+1 MiniBatch values instead of allocating
// fresh ones — the property that carries the PR 1 zero-allocation hot path
// across the goroutine hop.
func TestPipelineRecyclesBatches(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 11)
	cfg := PipelineConfig{Depth: 3, Workers: 2}
	pl := NewPipeline(tr, cfg)
	defer pl.Close()

	seen := make(map[*MiniBatch]struct{})
	for i := 0; i < 60; i++ {
		mb, err := pl.Next()
		if err != nil {
			t.Fatal(err)
		}
		seen[mb] = struct{}{}
		pl.Recycle(mb)
		pl.Recycle(mb)           // double recycle must be rejected, not enqueued twice
		pl.Recycle(&MiniBatch{}) // foreign batch must not enter the ring
	}
	if max := cfg.Depth + cfg.Workers + 1; len(seen) > max {
		t.Fatalf("pipeline circulated %d distinct batches, ring size is %d", len(seen), max)
	}
}

// Warm synchronous batch assembly over a local graph must be allocation
// free: TRAVERSE appends into the recycled edge buffer, NEGATIVE into the
// recycled negatives, and NEIGHBORHOOD reuses the batch's context layers.
func TestSyncSourceSteadyStateAllocs(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 13)
	src := NewSyncSource(tr)
	for i := 0; i < 3; i++ { // warm the lazy pools and buffers
		mb, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		src.Recycle(mb)
	}
	avg := testing.AllocsPerRun(200, func() {
		mb, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		src.Recycle(mb)
	})
	if avg > 0.5 {
		t.Fatalf("steady-state batch assembly allocates %.1f times per batch, want 0", avg)
	}
}

// failEnv wraps a TrainEnv and fails edge sampling after n successes.
type failEnv struct {
	TrainEnv
	left int
}

func (e *failEnv) AppendEdges(dst []graph.Edge, t graph.EdgeType, n int, pin *sampling.Pin, span *sampling.EpochSpan) ([]graph.Edge, error) {
	if e.left <= 0 {
		return nil, errors.New("env down")
	}
	e.left--
	return e.TrainEnv.AppendEdges(dst, t, n, pin, span)
}

// An assembly error must surface from Next in sequence position and stick;
// the pipeline keeps accepting Close afterwards.
func TestPipelineErrorSticky(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 17)
	tr.Env = &failEnv{TrainEnv: tr.Env, left: 2}
	pl := NewPipeline(tr, PipelineConfig{Depth: 2, Workers: 2})
	tr.SetSource(pl)
	defer pl.Close()

	steps := 0
	var err error
	for ; steps < 10; steps++ {
		if _, err = tr.StepNext(); err != nil {
			break
		}
	}
	if err == nil || err.Error() != "env down" {
		t.Fatalf("expected env error, got %v after %d steps", err, steps)
	}
	if steps != 2 {
		t.Fatalf("error surfaced after %d steps, want 2 (sequence order)", steps)
	}
	if _, err2 := tr.StepNext(); err2 == nil || err2.Error() != "env down" {
		t.Fatalf("error not sticky: %v", err2)
	}
}

// downEnv fails every edge draw with a transient error, announcing each
// attempt on calls.
type downEnv struct {
	TrainEnv
	calls chan struct{}
}

type downErr struct{}

func (downErr) Error() string   { return "shard down" }
func (downErr) Transient() bool { return true }

func (e *downEnv) AppendEdges([]graph.Edge, graph.EdgeType, int, *sampling.Pin, *sampling.EpochSpan) ([]graph.Edge, error) {
	e.calls <- struct{}{}
	return nil, downErr{}
}

// A transient failure never surfaces from a depth-0 Next: the batch parks
// and replays until Close, which ends the wait with ErrPipelineClosed.
func TestSyncSourceParksUntilClose(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 29)
	env := &downEnv{TrainEnv: tr.Env, calls: make(chan struct{})}
	tr.Env = env
	src := NewSyncSource(tr)
	errc := make(chan error, 1)
	go func() {
		_, err := src.Next()
		errc <- err
	}()
	for i := 0; i < 3; i++ { // the first attempt and two replays
		<-env.calls
	}
	go func() { // drain attempts that race with Close
		for range env.calls {
		}
	}()
	src.Close()
	if err := <-errc; !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("parked depth-0 Next after Close: %v, want ErrPipelineClosed", err)
	}
	close(env.calls)
}

// ContextFn trainers draw from the trainer's rand.Rand at encode time; a
// pipeline would race them, so construction must refuse loudly.
func TestPipelineRejectsContextFn(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 23)
	tr.ContextFn = func(vs []graph.ID) (*sampling.Context, error) { return nil, nil }
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipeline accepted a ContextFn trainer")
		}
	}()
	NewPipeline(tr, PipelineConfig{Depth: 1, Workers: 1})
}

// A ContextFn trainer's contexts are drawn at batch assembly, right after
// the positives and negatives they expand: Src, Dst, then Negs. A draw that
// fails transiently cannot be replayed, so the retry redraws the batch and
// its contexts still expand its own vertex lists.
func TestSyncSourceDrawsContextFnContexts(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 31)
	nbr := sampling.NewNeighborhood(sampling.NewGraphSource(g), tr.Rng)
	var drawn [][]graph.ID
	fail := true
	tr.ContextFn = func(vs []graph.ID) (*sampling.Context, error) {
		if fail && len(drawn) == 1 {
			fail = false
			drawn = drawn[:0]
			return nil, downErr{}
		}
		drawn = append(drawn, append([]graph.ID(nil), vs...))
		return nbr.Sample(tr.EdgeType, vs, tr.HopNums)
	}
	src := NewSyncSource(tr)
	defer src.Close()
	mb, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if fail {
		t.Fatal("the failing ContextFn call never ran")
	}
	if len(drawn) != 3 {
		t.Fatalf("%d ContextFn calls in the delivered batch, want 3", len(drawn))
	}
	for e, vs := range [3][]graph.ID{mb.Src, mb.Dst, mb.Negs} {
		if !slices.Equal(drawn[e], vs) || !slices.Equal(mb.Ctxs[e].Layers[0], vs) {
			t.Fatalf("context %d expands %v, batch list is %v", e, mb.Ctxs[e].Layers[0], vs)
		}
	}
	if loss, err := tr.Step(mb); err != nil || math.IsNaN(loss) {
		t.Fatalf("Step on ContextFn contexts: loss %v, err %v", loss, err)
	}
	src.Recycle(mb)
}

// Epoch spans merge TRAVERSE and NEIGHBORHOOD observations; a local graph
// has neither, so sync batches stay unstamped.
func TestLocalBatchesUnstamped(t *testing.T) {
	grng := rand.New(rand.NewSource(6))
	g := twoCommunityGraph(20, grng)
	tr := newPipelineTestTrainer(g, 19)
	src := NewSyncSource(tr)
	mb, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if mb.Epochs.Seen || mb.Epochs.Mixed() {
		t.Fatalf("local batch stamped: %+v", mb.Epochs)
	}
	src.Recycle(mb)
}
