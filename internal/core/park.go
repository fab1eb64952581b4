package core

import (
	"errors"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/version"
)

// This file holds the one batch-assembly routine every Pipeline depth runs,
// and its fault policy:
//
//   - a transient transport failure (a shard briefly unreachable, a retry
//     budget exhausted during a restart window) parks the batch — capped
//     exponential backoff, aborted by Close — and replays it against the
//     same pin and the scheduled seeds, which the seam's seed-purity makes
//     draw-exact;
//   - an unavailable epoch (version.IsUnavailable: the pin's lease was lost
//     to an eviction or a shard restart) discards the pin and replays; the
//     replay leases a fresh pin first, and a Lease that fails transiently
//     parks like any other read;
//   - only Close or a hard (application) error ends the retries.
//
// Waiting out a restart therefore never counts against a re-pin: a batch
// that parked through a shard's downtime meets the relaunched shard's
// "epoch not reached" as its first lost lease, not as an exhausted budget.
//
// The cluster package cannot be imported from here, so classification goes
// through the error's own Transient() capability (cluster.ShardDownError
// implements it).

// transientErr reports whether err is a transient transport failure that
// parking-and-retrying may outwait.
func transientErr(err error) bool {
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}

const (
	parkBase = 2 * time.Millisecond
	parkCap  = 250 * time.Millisecond
)

// parkDelay is the capped exponential backoff for the n-th consecutive park
// of one batch.
func parkDelay(n int) time.Duration {
	d := parkBase << uint(min(n, 10))
	if d > parkCap {
		d = parkCap
	}
	return d
}

// lane is one goroutine's share of batch assembly. The owner lane — the
// scheduler, or the caller of a depth-0 Pipeline — draws from the trainer's
// sequential streams: TRAVERSE, the negatives and the expansion seeds. An
// expanding lane — a worker, or the depth-0 caller — runs the three
// NEIGHBORHOOD expansions and the attribute prefetch through its own epoch
// view.
type lane struct {
	owner bool
	nbr   *sampling.Neighborhood // nil when the lane does not expand
	view  sampling.EpochView     // nil when the source does not pin
}

// expandingLane builds a lane that expands through its own epoch view of
// the trainer's source when the source pins.
func (p *Pipeline) expandingLane(owner bool) *lane {
	l := &lane{owner: owner}
	src := p.tr.Src
	if p.ps != nil {
		l.view = p.ps.EpochView()
		src = l.view
	}
	l.nbr = &sampling.Neighborhood{Src: src}
	return l
}

// assemble runs lane l's stages of mb in order — pin, TRAVERSE + negatives
// + seed plan or ContextFn contexts (owner), the three NEIGHBORHOOD
// expansions and the attribute prefetch (expanding) — under the file's
// fault policy, leaving a hard error or ErrPipelineClosed in mb.err.
//
// After a lost lease only the owner redraws TRAVERSE, at the fresh pin, so
// a depth-0 batch stays single-valued. A worker replays only from the
// scheduled seeds: the positives it was handed were drawn at the dead
// epoch, so the batch's span keeps the old stamp and gains the new one —
// it truthfully reports Mixed(), and consumers that require strict snapshot
// consistency can drop it.
func (p *Pipeline) assemble(mb *MiniBatch, l *lane) {
	parks := 0
	for {
		err := p.assembleOnce(mb, l)
		switch {
		case err == nil:
			return
		case transientErr(err):
			parks++
			if !p.park(parks) {
				mb.err = ErrPipelineClosed
				return
			}
		case p.ps != nil && version.IsUnavailable(err):
			p.ps.Discard(mb.Pin)
			p.unpin(mb)
			if l.owner {
				mb.dropEdges()
				mb.Epochs.Reset()
			}
		default:
			mb.err = err
			return
		}
		p.met.replays.Inc()
	}
}

// assembleOnce is one attempt at lane l's stages. Stages a previous attempt
// completed are skipped, so replaying a parked batch redraws nothing from
// the sequential streams: TRAVERSE runs while the batch holds no positives
// (the owner clears them only after a lost lease), and the seeds are
// planned once per batch. A ContextFn trainer's contexts are drawn with the
// positives they expand; a failed draw cannot be replayed, so it drops the
// positives and the retry redraws the whole batch.
func (p *Pipeline) assembleOnce(mb *MiniBatch, l *lane) error {
	tr := p.tr
	start := time.Now()
	if p.ps != nil && mb.Pin == nil {
		// The snapshot current at schedule time: in steady state a refcount
		// bump, after an observed update or a lost lease one Lease round.
		pin, err := p.ps.Pin()
		if err != nil {
			return err
		}
		mb.Pin = pin
	}
	if l.owner && len(mb.Src) == 0 {
		if err := tr.assembleEdges(mb); err != nil {
			return err
		}
		if tr.ContextFn != nil {
			if err := tr.drawContexts(mb); err != nil {
				mb.dropEdges()
				return err
			}
		} else if !mb.planned {
			p.plan(mb)
		}
		p.met.schedule.Observe(int64(time.Since(start)))
	}
	if l.nbr == nil {
		return nil
	}
	if l.view != nil {
		l.view.SetPin(mb.Pin)
		l.view.ResetSpan()
	}
	sampleStart := time.Now()
	for e, vs := range [3][]graph.ID{mb.Src, mb.Dst, mb.Negs} {
		rng := mb.seeds[e]
		if err := l.nbr.SampleInto(&mb.Ctxs[e], tr.EdgeType, vs, tr.HopNums, &rng); err != nil {
			return err
		}
	}
	p.met.sample.Observe(int64(time.Since(sampleStart)))
	if p.prefetch != nil {
		// Remote feature rows are fetched here, at the batch's pinned
		// epoch, so the encode reads the same snapshot as every other stage.
		mb.pvs = mb.pvs[:0]
		for e := range mb.Ctxs {
			for _, layer := range mb.Ctxs[e].Layers {
				mb.pvs = append(mb.pvs, layer...)
			}
		}
		if mb.Attrs == nil {
			mb.Attrs = make(map[graph.ID][]float64)
		} else {
			clear(mb.Attrs)
		}
		prefetchStart := time.Now()
		if err := p.prefetch.PrefetchAttrs(mb.pvs, mb.Pin, mb.Attrs); err != nil {
			return err
		}
		p.met.prefetch.Observe(int64(time.Since(prefetchStart)))
	}
	if l.view != nil {
		mb.Epochs.Merge(l.view.Span())
	}
	return nil
}

// plan takes mb's three expansion seeds from the sequential seed stream.
// An expansion consumes exactly one seed per hop, so a snapshot plus a
// fixed skip hands the expanding lane precisely the draws a single
// goroutine would have made.
func (p *Pipeline) plan(mb *MiniBatch) {
	if p.srng == nil {
		p.srng = sampling.NewRng(uint64(p.tr.Rng.Int63()))
	}
	for e := range mb.seeds {
		mb.seeds[e] = p.srng.Snapshot()
		p.srng.Skip(len(p.tr.HopNums))
	}
	mb.planned = true
}

// park sleeps the n-th consecutive backoff delay for one parked batch,
// returning false when the pipeline closed during the wait (the caller then
// abandons the batch instead of spinning against a stopped pipeline).
func (p *Pipeline) park(n int) bool {
	p.met.parks.Inc()
	t := time.NewTimer(parkDelay(n))
	defer t.Stop()
	select {
	case <-p.stop:
		return false
	case <-t.C:
		return true
	}
}

// unpin releases mb's snapshot pin, if any.
func (p *Pipeline) unpin(mb *MiniBatch) {
	if mb.Pin != nil && p.ps != nil {
		p.ps.Unpin(mb.Pin)
	}
	mb.Pin = nil
}
