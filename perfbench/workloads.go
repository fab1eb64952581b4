package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/sampling"
)

// Workload shape: the trainer's shipped defaults (batch 64, 4 negatives
// per edge, hops [5,3]) and fixed untimed warm-ups.
const (
	batchSize = 64
	negK      = 4

	trainWarmup = 8 // training steps

	sampleWarmup     = 32 // mini-batches, every one checked
	sampleCheckEvery = 16 // timed mini-batches between candidates for checking
	sampleKeep       = 16 // candidates kept, and checked after the window

	serveTrainSteps = 4  // encoder training before the tier starts
	serveWarmup     = 60 // lookups per caller
	serveCallers    = 2
	serveCands      = 32
	serveK          = 10
	serveZipf       = 1.1
	serveUpdateEach = 10 // lookups per caller between in-band updates
	serveInserts    = 4
	serveExactProbe = 64 // hot items probed for serve.exact_ratio
)

var hops = []int{5, 3}

// workload is one benchmark load. build constructs the layer under test on
// a fresh stack and runs the untimed warm-up (both count as set-up). op is
// one timed op of caller c; between runs after op i of caller c, outside
// the op's latency. check validates everything the run produced.
type workload interface {
	build(st *stack, seed int64) error
	callers() int
	op(c int) error
	between(c, i int) error
	// fingerprint is warm-up output that a fixed seed must reproduce bit
	// for bit on every set-up.
	fingerprint() []float64
	check() error
	close()
}

func newWorkload(name string, tc *tracer) (workload, error) {
	switch name {
	case "train":
		return &trainLoad{tc: tc}, nil
	case "sample":
		return &sampleLoad{tc: tc}, nil
	case "serve_churn":
		return &serveLoad{tc: tc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want train, sample or serve_churn)", name)
}

// ---------------------------------------------------------------------------
// train: one op is Trainer.Train(1) on a depth-4 / 2-worker pipeline.

type trainLoad struct {
	tc     *tracer
	tr     *aligraph.Trainer
	warm   []float64
	losses []float64
}

func (w *trainLoad) build(st *stack, seed int64) error {
	cfg := aligraph.DefaultTrainConfig()
	cfg.UseAttrs = true
	cfg.Pipeline = aligraph.PipelineConfig{Depth: 4, Workers: 2}
	tr, err := st.cp.NewGraphSAGE(cfg)
	if err != nil {
		return err
	}
	w.tr = tr
	tr.RegisterObs(st.reg)
	losses, err := tr.Train(trainWarmup)
	if err != nil {
		return fmt.Errorf("train warm-up: %w", err)
	}
	w.warm = losses
	w.losses = append(w.losses, losses...)
	return nil
}

func (w *trainLoad) callers() int { return 1 }

func (w *trainLoad) op(int) error {
	id := w.tc.begin("core.train_step", -1, 0)
	losses, err := w.tr.Train(1)
	w.tc.end(id)
	w.losses = append(w.losses, losses...)
	return err
}

func (w *trainLoad) between(int, int) error { return nil }

func (w *trainLoad) fingerprint() []float64 { return w.warm }

// check: every loss is finite and training made progress (the mean loss of
// the last quarter of steps is below the first quarter's).
func (w *trainLoad) check() error {
	for i, l := range w.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("train: step %d loss %v is not finite", i, l)
		}
	}
	q := len(w.losses) / 4
	if q < 1 {
		return fmt.Errorf("train: %d steps are too few to judge progress", len(w.losses))
	}
	first, last := mean(w.losses[:q]), mean(w.losses[len(w.losses)-q:])
	if !(last < first) {
		return fmt.Errorf("train: loss did not fall (first quarter %.4f, last quarter %.4f)", first, last)
	}
	return nil
}

func (w *trainLoad) close() {
	if w.tr != nil {
		w.tr.Close()
	}
}

// ---------------------------------------------------------------------------
// sample: one op is the producer half of a training step, run alone.

type sampleLoad struct {
	tc    *tracer
	g     *graph.Graph
	cl    *cluster.Client
	view  sampling.EpochView
	nb    *sampling.Neighborhood
	neg   *sampling.Negative
	seeds *rand.Rand
	rng   *sampling.Rng

	edges          []graph.Edge
	src, dst, negs []graph.ID
	ctxs           [3]sampling.Context
	uniq           []graph.ID
	seen           map[graph.ID]struct{}
	rows           [][]float64

	// A uniform sample, drawn with keep, of sampleKeep of the timed ops'
	// outputs out of every sampleCheckEvery-th; check verifies them after
	// the window so the checks cost the window nothing but the copies.
	keep  *rand.Rand
	cands int
	kept  []sampleOut
}

// sampleOut is one op's outputs as verify checks them.
type sampleOut struct {
	edges []graph.Edge
	negs  []graph.ID
	ctxs  [3]sampling.Context
	uniq  []graph.ID
	rows  [][]float64
}

func (w *sampleLoad) build(st *stack, seed int64) error {
	w.g, w.cl = st.g, st.cp.Client
	cands, counts, err := w.cl.NegativePool(edgeType)
	if err != nil {
		return fmt.Errorf("negative pool: %w", err)
	}
	w.neg = sampling.NewNegativeFromPool(cands, sampling.UnigramWeights(counts), rand.New(rand.NewSource(seed+1)))
	w.view = w.cl.EpochView()
	w.nb = sampling.NewNeighborhood(w.view, nil)
	w.seeds = rand.New(rand.NewSource(seed))
	w.rng = sampling.NewRng(uint64(seed) + 2)
	w.keep = rand.New(rand.NewSource(seed + 3))
	w.seen = make(map[graph.ID]struct{})
	for i := 0; i < sampleWarmup; i++ {
		if err := w.op(0); err != nil {
			return fmt.Errorf("sample warm-up: %w", err)
		}
		if err := verify(w.g, w.output()); err != nil {
			return err
		}
	}
	return nil
}

func (w *sampleLoad) callers() int { return 1 }

func (w *sampleLoad) op(int) error {
	pin, err := w.cl.Pin()
	if err != nil {
		return err
	}
	defer w.cl.Unpin(pin)
	w.view.SetPin(pin)
	w.view.ResetSpan()

	var span sampling.EpochSpan
	id := w.tc.begin("sampling.traverse", -1, 0)
	w.edges, err = w.cl.AppendSampleEdges(w.edges[:0], edgeType, batchSize, w.seeds.Uint64(), pin, &span)
	w.tc.end(id)
	if err != nil {
		return err
	}
	w.src, w.dst = w.src[:0], w.dst[:0]
	for _, e := range w.edges {
		w.src = append(w.src, e.Src)
		w.dst = append(w.dst, e.Dst)
	}

	id = w.tc.begin("sampling.negative", -1, 0)
	w.negs = w.neg.AppendSample(w.negs[:0], w.dst, negK)
	w.tc.end(id)

	id = w.tc.begin("sampling.neighborhood", -1, 0)
	for k, seeds := range [][]graph.ID{w.src, w.dst, w.negs} {
		if err = w.nb.SampleInto(&w.ctxs[k], edgeType, seeds, hops, w.rng); err != nil {
			break
		}
	}
	w.tc.end(id)
	if err != nil {
		return err
	}

	// Hop-0 features: the attribute row of every distinct context vertex,
	// in first-appearance order, at the pinned snapshot.
	w.uniq = w.uniq[:0]
	clear(w.seen)
	for k := range w.ctxs {
		for _, layer := range w.ctxs[k].Layers {
			for _, v := range layer {
				if _, ok := w.seen[v]; !ok {
					w.seen[v] = struct{}{}
					w.uniq = append(w.uniq, v)
				}
			}
		}
	}
	id = w.tc.begin("sampling.attrs", -1, 0)
	w.rows, err = w.cl.AttrsAt(w.uniq, pin)
	w.tc.end(id)
	return err
}

// between keeps every sampleCheckEvery-th op's outputs as a candidate for
// the sample (reservoir sampling: the n-th candidate replaces a random kept
// one with probability sampleKeep/n).
func (w *sampleLoad) between(_, i int) error {
	if i%sampleCheckEvery != 0 {
		return nil
	}
	w.cands++
	if len(w.kept) < sampleKeep {
		w.kept = append(w.kept, w.output())
	} else if j := w.keep.Intn(w.cands); j < sampleKeep {
		w.kept[j] = w.output()
	}
	return nil
}

// output copies the last op's outputs out of the buffers the next op
// reuses. Attribute rows are fresh from every AttrsAt call and are shared.
func (w *sampleLoad) output() sampleOut {
	o := sampleOut{
		edges: append([]graph.Edge(nil), w.edges...),
		negs:  append([]graph.ID(nil), w.negs...),
		uniq:  append([]graph.ID(nil), w.uniq...),
		rows:  append([][]float64(nil), w.rows...),
	}
	for k, ctx := range w.ctxs {
		o.ctxs[k].HopNums = append([]int(nil), ctx.HopNums...)
		for _, layer := range ctx.Layers {
			o.ctxs[k].Layers = append(o.ctxs[k].Layers, append([]graph.ID(nil), layer...))
		}
	}
	return o
}

// verify checks one op's outputs against the benchmark's own copy g of the
// graph: every TRAVERSE edge exists, every drawn neighbour is an
// out-neighbour of its seed (or the seed itself when it has none), and
// every attribute row equals the generator's.
func verify(g *graph.Graph, o sampleOut) error {
	if len(o.edges) != batchSize || len(o.negs) != batchSize*negK {
		return fmt.Errorf("sample: %d edges and %d negatives, want %d and %d", len(o.edges), len(o.negs), batchSize, batchSize*negK)
	}
	for _, e := range o.edges {
		if !contains(g.OutNeighbors(e.Src, edgeType), e.Dst) {
			return fmt.Errorf("sample: traversed edge %d->%d is not in the graph", e.Src, e.Dst)
		}
	}
	for k := range o.ctxs {
		ctx := &o.ctxs[k]
		for h := range hops {
			for i, v := range ctx.Layers[h] {
				out := g.OutNeighbors(v, edgeType)
				for _, u := range ctx.NeighborsOf(h, i) {
					if len(out) == 0 && u != v || len(out) > 0 && !contains(out, u) {
						return fmt.Errorf("sample: hop %d drew %d, not an out-neighbour of %d", h+1, u, v)
					}
				}
			}
		}
	}
	if len(o.rows) != len(o.uniq) {
		return fmt.Errorf("sample: %d attribute rows for %d vertices", len(o.rows), len(o.uniq))
	}
	for j, v := range o.uniq {
		want := g.VertexAttr(v)
		if len(o.rows[j]) != len(want) {
			return fmt.Errorf("sample: attribute row of %d has %d values, want %d", v, len(o.rows[j]), len(want))
		}
		for d := range want {
			if o.rows[j][d] != want[d] {
				return fmt.Errorf("sample: attribute row of %d differs from the generator's", v)
			}
		}
	}
	return nil
}

func (w *sampleLoad) fingerprint() []float64 { return nil }

// check verifies the kept outputs and releases them.
func (w *sampleLoad) check() error {
	kept := w.kept
	w.kept = nil
	for _, o := range kept {
		if err := verify(w.g, o); err != nil {
			return err
		}
	}
	return nil
}

func (w *sampleLoad) close() {}

// ---------------------------------------------------------------------------
// serve_churn: TopK lookups from two closed-loop callers, with an in-band
// update after every serveUpdateEach lookups of a caller.

type serveLoad struct {
	tc    *tracer
	st    *stack
	tr    *aligraph.Trainer
	srv   *aligraph.InferenceServer
	warm  []float64
	users []graph.ID
	hot   []graph.ID // items, hottest first

	clients [serveCallers]serveCaller
	routed  [numShards]atomic.Int64 // update batches routed to each shard

	mu       sync.Mutex
	updLat   []time.Duration
	badCheck error
}

type serveCaller struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	pending []cluster.RawEdge // inserted edges not yet deleted, oldest first
	cands   []graph.ID
}

func (w *serveLoad) build(st *stack, seed int64) error {
	w.st = st
	cfg := aligraph.DefaultTrainConfig()
	cfg.UseAttrs = true
	tr, err := st.cp.NewGraphSAGE(cfg)
	if err != nil {
		return err
	}
	w.tr = tr
	if w.warm, err = tr.Train(serveTrainSteps); err != nil {
		return fmt.Errorf("serve warm-up training: %w", err)
	}
	w.srv = st.cp.Serve(tr, aligraph.ServeConfig{
		FlushWindow: time.Millisecond, MaxBatch: 64, MaxLag: 8, CacheCap: 4096,
		RefreshEvery: 50 * time.Millisecond, EdgeType: edgeType,
	})
	w.srv.RegisterObs(st.reg)

	w.users = st.g.VerticesOfType(0)
	items := st.g.VerticesOfType(1)
	rng := rand.New(rand.NewSource(seed))
	w.hot = make([]graph.ID, len(items))
	for i, j := range rng.Perm(len(items)) {
		w.hot[i] = items[j]
	}
	for c := range w.clients {
		r := rand.New(rand.NewSource(seed + int64(c) + 1))
		w.clients[c] = serveCaller{rng: r, zipf: rand.NewZipf(r, serveZipf, 1, uint64(len(items)-1))}
	}
	res := runLoop(serveCallers, time.Time{}, serveWarmup, w.op, w.between)
	if res.firstErr != nil {
		return fmt.Errorf("serve warm-up: %w", res.firstErr)
	}
	return w.checked()
}

func (w *serveLoad) callers() int { return serveCallers }

func (w *serveLoad) item(c *serveCaller) graph.ID { return w.hot[c.zipf.Uint64()] }

func (w *serveLoad) op(ci int) error {
	c := &w.clients[ci]
	user := w.users[c.rng.Intn(len(w.users))]
	c.cands = c.cands[:0]
	for len(c.cands) < serveCands {
		v := w.item(c)
		if !contains(c.cands, v) {
			c.cands = append(c.cands, v)
		}
	}
	id := w.tc.begin("serve.topk", -1, 0)
	top, err := w.srv.TopK(user, c.cands, serveK)
	w.tc.end(id)
	if err != nil {
		return err
	}
	if len(top) != serveK {
		w.fail(fmt.Errorf("serve: TopK returned %d results, want %d", len(top), serveK))
	}
	for i, s := range top {
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || i > 0 && s.Score > top[i-1].Score {
			w.fail(fmt.Errorf("serve: TopK scores are not finite and descending: %v", top))
			break
		}
	}
	return nil
}

// between applies one in-band update (serveInserts edge inserts plus the
// deletion of the caller's oldest pending insert) after every
// serveUpdateEach lookups. It is timed as version.update.
func (w *serveLoad) between(ci, i int) error {
	if i%serveUpdateEach != 0 {
		return nil
	}
	c := &w.clients[ci]
	add := make([]cluster.RawEdge, serveInserts)
	for k := range add {
		add[k] = cluster.RawEdge{Src: w.users[c.rng.Intn(len(w.users))], Dst: w.item(c), Type: edgeType, Weight: 1}
	}
	c.pending = append(c.pending, add...)
	del := c.pending[0]
	c.pending = c.pending[1:]
	var touched [numShards]bool
	for _, e := range append(add, del) {
		touched[w.st.cp.Client.Assign.Part(e.Src)] = true
	}

	id := w.tc.begin("version.update", -1, 0)
	start := time.Now()
	_, err := w.srv.ApplyUpdate(add, []cluster.RawEdge{del}, nil)
	d := time.Since(start)
	w.tc.end(id)
	if err != nil {
		return err
	}
	for p, t := range touched {
		if t {
			w.routed[p].Add(1)
		}
	}
	w.mu.Lock()
	w.updLat = append(w.updLat, d)
	w.mu.Unlock()
	return nil
}

func (w *serveLoad) fail(err error) {
	w.mu.Lock()
	if w.badCheck == nil {
		w.badCheck = err
	}
	w.mu.Unlock()
}

func (w *serveLoad) checked() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.badCheck
}

func (w *serveLoad) fingerprint() []float64 { return w.warm }

// check: lookups were well-formed, and each shard's head epoch equals the
// number of update batches routed to it (every routed batch applies at
// least one operation, so each is exactly one new epoch).
func (w *serveLoad) check() error {
	if err := w.checked(); err != nil {
		return err
	}
	for p, s := range w.st.servers {
		if got, want := s.UpdateEpoch(), uint64(w.routed[p].Load()); got != want {
			return fmt.Errorf("serve: shard %d head epoch %d, want %d routed update batches", p, got, want)
		}
	}
	return nil
}

// exactRatio probes the hottest items and reports the share of cached
// embeddings that are bit-equal to a fresh single-vertex encode. It runs
// after the timed window and is reported, not asserted.
func (w *serveLoad) exactRatio() (float64, error) {
	cached, exact := 0, 0
	for _, v := range w.hot[:min(serveExactProbe, len(w.hot))] {
		hits := w.srv.Stats().Cache.Hits
		vec, err := w.srv.Embed(v)
		if err != nil {
			return 0, err
		}
		if w.srv.Stats().Cache.Hits == hits {
			continue // computed now, not served from the cache
		}
		m, _, err := w.tr.EmbedCtx([]graph.ID{v})
		if err != nil {
			return 0, err
		}
		cached++
		if equalBits(vec, m.Row(0)) {
			exact++
		}
	}
	if cached == 0 {
		return 0, errors.New("serve: no probed item was served from the cache")
	}
	return float64(exact) / float64(cached), nil
}

func (w *serveLoad) updates() []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Duration(nil), w.updLat...)
}

func (w *serveLoad) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.tr != nil {
		w.tr.Close()
	}
}

// ---------------------------------------------------------------------------

func contains(xs []graph.ID, x graph.ID) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
