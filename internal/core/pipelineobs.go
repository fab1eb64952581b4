package core

import (
	"repro/internal/obs"
)

// Pipeline observability: always-on batch-lifecycle stage timings. Each
// assembled batch contributes one observation per stage it passes through —
// schedule (the owner lane's sequential work: pin, TRAVERSE, negatives, seed
// snapshots), sample (an expanding lane's three NEIGHBORHOOD expansions),
// prefetch (the hop-0 attribute fetch, cluster sources only), and consume
// (how long the trainer held the batch between Next and Recycle). Above
// depth 0, next_wait measures how long Next blocked before a batch was
// ready: near-zero means the
// producers are hiding graph-service latency completely; values tracking the
// sample stage mean the pipeline is producer-bound and Depth/Workers are the
// knobs to turn. parks and replays count fault handling (transient-failure
// backoff sleeps and batch stage re-executions after a park or a lost
// lease). Recording costs a clock read and a few atomic adds per batch —
// nothing on the per-vertex path — and never touches the trainer's random
// streams, so pipelined losses stay bit-identical with instrumentation on.
type pipelineMetrics struct {
	schedule obs.Histogram
	sample   obs.Histogram
	prefetch obs.Histogram
	consume  obs.Histogram
	nextWait obs.Histogram
	parks    obs.Counter
	replays  obs.Counter
}

// RegisterObs names the pipeline's instruments in r under core.pipeline.*:
// per-stage latency histograms, park/replay counters, occupancy gauges for
// the batch ring (ready = assembled batches waiting in order for Next,
// planned = scheduled batches waiting for a worker), and the static
// depth/workers configuration.
func (p *Pipeline) RegisterObs(r *obs.Registry) {
	r.RegisterHistogram("core.pipeline.stage.schedule.latency", &p.met.schedule)
	r.RegisterHistogram("core.pipeline.stage.sample.latency", &p.met.sample)
	r.RegisterHistogram("core.pipeline.stage.prefetch.latency", &p.met.prefetch)
	r.RegisterHistogram("core.pipeline.stage.consume.latency", &p.met.consume)
	r.RegisterHistogram("core.pipeline.next_wait.latency", &p.met.nextWait)
	r.RegisterCounter("core.pipeline.parks", &p.met.parks)
	r.RegisterCounter("core.pipeline.replays", &p.met.replays)
	r.Gauge("core.pipeline.ready", func() int64 { return int64(len(p.out)) })
	r.Gauge("core.pipeline.planned", func() int64 { return int64(len(p.plans)) })
	r.Gauge("core.pipeline.depth", func() int64 { return int64(p.cfg.Depth) })
	r.Gauge("core.pipeline.workers", func() int64 { return int64(p.cfg.Workers) })
}
