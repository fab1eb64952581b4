package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/sampling"
)

// PipelineConfig tunes a Pipeline.
type PipelineConfig struct {
	// Depth is how many assembled batches may wait ahead of the consumer.
	// Depth 0 starts no goroutines: each batch is assembled inline on the
	// caller of Next — the depth-0 reference source (NewSyncSource).
	Depth int
	// Workers is the number of parallel assembly goroutines (default 2;
	// unused at Depth 0). Each worker drives its own NEIGHBORHOOD expansion —
	// on a cluster source that means independent in-flight
	// SampleNeighbors/Attrs RPC windows per worker, bounded by Workers.
	Workers int
}

// ErrPipelineClosed is returned by Next after Close.
var ErrPipelineClosed = errors.New("core: pipeline closed")

// Pipeline is the trainer's BatchSource. Above depth 0 it assembles up to
// Depth MiniBatches ahead of the consumer so that TRAVERSE, NEGATIVE and
// NEIGHBORHOOD sampling (and, on clusters, the batched Attrs prefetch) of
// future batches overlap the forward/backward pass of the current one —
// the produce/consume split of Section 4.1 that hides graph-service
// latency behind GNN compute. At depth 0 it assembles each batch inline.
//
// Every depth runs the same assembly routine (assemble) with the same
// fault policy: a transient transport failure parks the batch and replays
// it against the same pin and scheduled seeds; a lost lease (an evicted or
// not-yet-reached epoch) discards the pin, leases a fresh one and replays;
// only Close or a hard error ends the retries. The hard error surfaces
// from Next in sequence position.
//
// Determinism: a single owner goroutine (the scheduler; the caller at depth
// 0) performs every draw from the trainer's sequential random streams in
// batch order — the TRAVERSE batch, the negatives, and a snapshot of the
// NEIGHBORHOOD seed stream per encode (each hop consumes exactly one seed,
// so the owner advances the stream without sampling anything). Workers
// then execute the expensive expansions from those snapshots, and a
// collector releases batches in sequence order. The training losses are
// therefore bit-identical at every Depth and Workers setting — including
// with a replacing (LRU) neighbor cache: draws are vertex-keyed
// (sampling.DrawVertex derives each vertex's stream from the hop seed and
// the vertex alone), so cache warm-up timing, admission order across
// workers, and hit/miss patterns can shift RPC traffic but never the
// sampled values.
//
// Buffers: MiniBatches circulate through a fixed free list of
// Depth+Workers+1 batches (one batch at depth 0), so steady-state
// production allocates nothing on the local path and the zero-allocation
// sampling property survives the goroutine hop. Close
// stops all goroutines and waits for them; the consumer must not call Next
// concurrently with itself, and inference on the trainer must wait until
// the pipeline is closed or idle.
type Pipeline struct {
	tr       *LinkTrainer
	cfg      PipelineConfig
	prefetch PrefetchingFeatures
	// ps is the source's pinning capability (cluster clients). When
	// present, every batch is stamped with a pin of the snapshot current at
	// schedule time and every stage reads it through its lane's EpochView.
	ps sampling.PinSource

	// srng is the NEIGHBORHOOD seed stream, drawn only by the owner lane;
	// created lazily from the trainer's Rng after the first batch's edge
	// and negative draws, which keeps the pre-pipeline draw order.
	srng *sampling.Rng

	// inline is the single batch of a depth-0 pipeline and lane the
	// caller's lane that assembles it; both nil above depth 0.
	inline *MiniBatch
	lane   *lane

	free  chan *MiniBatch // recycled batches -> scheduler
	plans chan *MiniBatch // scheduler -> workers (edges+negs+seeds filled)
	done  chan *MiniBatch // workers -> collector (contexts+attrs filled)
	out   chan *MiniBatch // collector -> Next, in sequence order

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu  sync.Mutex
	err error

	met pipelineMetrics
}

// NewPipeline builds and starts a batch source over tr's environment and
// sampler stack. The trainer must not have trained yet (the pipeline takes
// over its random streams). Above depth 0 the trainer must not use a
// ContextFn — layer-wise sampling closures are not required to be
// goroutine-safe, and a scheduler drawing them ahead of the consumer would
// race inference on the trainer's rand.Rand; NewPipeline panics rather than
// letting that misuse surface as a data race far from its cause.
// Install the pipeline with tr.SetSource.
func NewPipeline(tr *LinkTrainer, cfg PipelineConfig) *Pipeline {
	p := &Pipeline{tr: tr, prefetch: tr.prefetcher(), stop: make(chan struct{})}
	p.ps, _ = tr.Src.(sampling.PinSource)
	if cfg.Depth < 1 {
		p.cfg = PipelineConfig{}
		p.inline = &MiniBatch{}
		p.lane = &lane{owner: true}
		if tr.ContextFn == nil {
			p.lane = p.expandingLane(true)
		}
		return p
	}
	if tr.ContextFn != nil {
		panic("core: Pipeline is incompatible with a ContextFn trainer (layer-wise samplers draw from the trainer's rand.Rand and need not be goroutine-safe)")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	p.cfg = cfg
	total := cfg.Depth + cfg.Workers + 1
	p.free = make(chan *MiniBatch, total)
	p.plans = make(chan *MiniBatch, total)
	p.done = make(chan *MiniBatch, total)
	p.out = make(chan *MiniBatch, total)
	for i := 0; i < total; i++ {
		p.free <- &MiniBatch{}
	}
	p.wg.Add(cfg.Workers + 2)
	go p.scheduler()
	for w := 0; w < cfg.Workers; w++ {
		go p.worker()
	}
	go p.collector()
	return p
}

// scheduler owns the trainer's sequential random streams: it runs the
// owner lane — pin, TRAVERSE, NEGATIVE, per-encode seed snapshots — in
// batch order and hands the expensive rest to the workers. Exactly `total`
// batches circulate and every channel holds that many, so channel sends
// never block; only receives watch the stop signal.
func (p *Pipeline) scheduler() {
	defer p.wg.Done()
	owner := &lane{owner: true}
	for seq := uint64(0); ; seq++ {
		select {
		case <-p.stop:
			return
		case mb := <-p.free:
			p.unpin(mb) // error batches returned directly may still hold one
			mb.reset()
			mb.seq = seq
			p.assemble(mb, owner)
			p.plans <- mb
		}
	}
}

// worker runs an expanding lane over planned batches: the three
// NEIGHBORHOOD expansions from their scheduled seed snapshots, then the
// hop-0 attribute prefetch. Each worker samples through its own epoch view
// when the source has one, so the epochs a batch observed are recorded
// without cross-worker synchronization.
func (p *Pipeline) worker() {
	defer p.wg.Done()
	l := p.expandingLane(false)
	for {
		select {
		case <-p.stop:
			return
		case mb := <-p.plans:
			if mb.err == nil {
				p.assemble(mb, l)
			}
			p.done <- mb
		}
	}
}

// collector restores sequence order: workers finish out of order, the
// consumer must see batches exactly as the scheduler drew them.
func (p *Pipeline) collector() {
	defer p.wg.Done()
	next := uint64(0)
	pending := make(map[uint64]*MiniBatch, cap(p.out))
	for {
		select {
		case <-p.stop:
			// Park out-of-order batches back in a channel so Close's drain
			// can release their snapshot pins; every channel holds `total`
			// batches, so the sends cannot block.
			for _, m := range pending {
				p.out <- m
			}
			return
		case mb := <-p.done:
			pending[mb.seq] = mb
			for {
				m, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				p.out <- m
				next++
			}
		}
	}
}

// Next implements BatchSource. Above depth 0 errors are sticky: the first
// assembly error is returned (in sequence position) and every later call
// repeats it. At depth 0 the batch is assembled on the calling goroutine
// and each call starts afresh; the returned batch is valid until Recycle
// or the next Next call.
func (p *Pipeline) Next() (*MiniBatch, error) {
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case <-p.stop:
		// Checked eagerly so a Close that has already returned wins over
		// batches still sitting in the output buffer.
		return nil, ErrPipelineClosed
	default:
	}
	if mb := p.inline; mb != nil {
		p.unpin(mb) // in case the consumer skipped Recycle
		mb.reset()
		p.assemble(mb, p.lane)
		if err := mb.err; err != nil {
			mb.err = nil
			p.unpin(mb)
			return nil, err
		}
		mb.loaned = true
		mb.outAt = time.Now()
		return mb, nil
	}
	wait := time.Now()
	select {
	case <-p.stop:
		return nil, ErrPipelineClosed
	case mb := <-p.out:
		p.met.nextWait.Observe(int64(time.Since(wait)))
		if mb.err != nil {
			err := mb.err
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
			mb.err = nil
			p.unpin(mb)
			p.free <- mb // ring member, never handed out: direct return
			return nil, err
		}
		mb.loaned = true
		mb.outAt = time.Now()
		return mb, nil
	}
}

// Recycle implements BatchSource, returning the batch to the free list for
// the scheduler to refill. Only batches currently checked out by Next are
// accepted: a double Recycle or a batch from another source is dropped,
// since admitting either would put a pointer into circulation twice (or
// grow the ring past its channel capacities) and corrupt the pipeline.
func (p *Pipeline) Recycle(mb *MiniBatch) {
	if mb == nil || !mb.loaned {
		return
	}
	p.met.consume.Observe(int64(time.Since(mb.outAt)))
	p.unpin(mb)
	mb.loaned = false
	if p.inline == nil {
		p.free <- mb // loaned ring members always have a free slot reserved
	}
}

// Close stops the producer goroutines, waits for them to exit, and releases
// the snapshot pins of every batch still in flight inside the pipeline.
// Batches already handed out stay valid (their pins release on Recycle);
// Next returns ErrPipelineClosed afterwards, and a batch parked inside a
// running Next gives up with it. Close is idempotent and safe to call from
// any goroutine.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	if p.ps != nil {
		// All goroutines are stopped: every non-loaned batch sits in one of
		// the channels. Drain them, release pins, and put the batches back.
		var held []*MiniBatch
		for _, ch := range []chan *MiniBatch{p.free, p.plans, p.done, p.out} {
			for {
				select {
				case mb := <-ch:
					p.unpin(mb)
					held = append(held, mb)
				default:
				}
				if len(ch) == 0 {
					break
				}
			}
		}
		for _, mb := range held {
			p.free <- mb
		}
	}
	return nil
}
