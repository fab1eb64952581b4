package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sampling"
)

// FaultTransport is the deterministic fault-injection harness: it wraps any
// Caller and injects request drops, lost replies, latency spikes, and
// per-shard outages (short error bursts or full blackouts with scheduled
// recovery). All randomness comes from one seeded stream and all schedules
// are keyed on per-shard attempted-call counts — never wall-clock time — so
// a fixed seed yields a fixed fault pattern and chaos tests are exactly
// reproducible. Injected failures are wrapped around ErrUnreachable, so the
// policy layer classifies them exactly like real network faults.

// Outage fails every call to Part whose per-shard sequence number falls in
// [From, From+Len). Len <= 0 makes the outage permanent (a dead shard). A
// short Len models an error burst; a long one a blackout with scheduled
// recovery at call From+Len.
type Outage struct {
	Part      int
	From, Len int64
}

// FaultConfig tunes a FaultTransport.
type FaultConfig struct {
	// Seed drives the drop/latency decision stream.
	Seed uint64
	// DropRate is the per-call probability the request is lost before
	// reaching the server.
	DropRate float64
	// ReplyDropRate is the per-call probability the request executes
	// server-side but its reply is lost — the case idempotency tokens exist
	// for.
	ReplyDropRate float64
	// LatencyRate is the per-call probability of an injected latency spike
	// of Latency.
	LatencyRate float64
	Latency     time.Duration
	// Outages schedules deterministic per-shard failure windows.
	Outages []Outage
}

// FaultTransport injects cfg's faults in front of its inner layer; Kick and
// Close are never faulted. Safe for concurrent use.
type FaultTransport struct {
	facade
	Caller // the inner layer

	mu    sync.Mutex
	cfg   FaultConfig
	rng   sampling.Rng
	calls []int64 // attempted calls per shard (the outage clock)

	drops      atomic.Int64
	replyDrops atomic.Int64
	spikes     atomic.Int64
	outageHits atomic.Int64
}

// NewFaultTransport wraps inner (serving parts shards) with cfg's faults.
func NewFaultTransport(inner Caller, parts int, cfg FaultConfig) *FaultTransport {
	if parts < 1 {
		parts = 1
	}
	t := &FaultTransport{
		Caller: inner,
		cfg:    cfg,
		rng:    *sampling.NewRng(cfg.Seed ^ 0xD6E8FEB86659FD93),
		calls:  make([]int64, parts),
	}
	t.facade = facade{t}
	return t
}

// KillShard schedules a permanent outage for part starting at its next call
// — the "shard died now" switch for degradation tests.
func (t *FaultTransport) KillShard(part int) {
	t.mu.Lock()
	t.cfg.Outages = append(t.cfg.Outages, Outage{Part: part, From: t.calls[part]})
	t.mu.Unlock()
}

// Calls reports how many calls part has received (attempted, including
// faulted ones).
func (t *FaultTransport) Calls(part int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if part < 0 || part >= len(t.calls) {
		return 0
	}
	return t.calls[part]
}

// Injected reports cumulative injected faults: dropped requests, dropped
// replies, latency spikes, and outage-window failures.
func (t *FaultTransport) Injected() (drops, replyDrops, spikes, outages int64) {
	return t.drops.Load(), t.replyDrops.Load(), t.spikes.Load(), t.outageHits.Load()
}

// fault runs the per-call fault decision for part. It returns a non-nil err
// when the request is lost (outage window or random drop), and dropReply
// when the call must execute but its reply be discarded.
func (t *FaultTransport) fault(part int) (dropReply bool, err error) {
	p := part
	if p < 0 || p >= len(t.calls) {
		p = 0
	}
	t.mu.Lock()
	seq := t.calls[p]
	t.calls[p]++
	var outage bool
	for _, o := range t.cfg.Outages {
		if o.Part == p && seq >= o.From && (o.Len <= 0 || seq < o.From+o.Len) {
			outage = true
			break
		}
	}
	drop := t.cfg.DropRate > 0 && t.rng.Float64() < t.cfg.DropRate
	dropReply = t.cfg.ReplyDropRate > 0 && t.rng.Float64() < t.cfg.ReplyDropRate
	var spike time.Duration
	if t.cfg.LatencyRate > 0 && t.rng.Float64() < t.cfg.LatencyRate {
		spike = t.cfg.Latency
	}
	t.mu.Unlock()

	if outage {
		t.outageHits.Add(1)
		return false, fmt.Errorf("cluster: injected outage on shard %d (call %d): %w", p, seq, ErrUnreachable)
	}
	if spike > 0 {
		t.spikes.Add(1)
		time.Sleep(spike)
	}
	if drop {
		t.drops.Add(1)
		return false, fmt.Errorf("cluster: injected drop on shard %d (call %d): %w", p, seq, ErrUnreachable)
	}
	return dropReply, nil
}

// lostReply is the error surfaced when an executed call's reply is dropped.
func lostReply(part int) error {
	return fmt.Errorf("cluster: injected reply loss on shard %d: %w", part, ErrUnreachable)
}

// Call implements Caller: it runs the fault decision, then calls the inner
// layer. A "lost" reply may already have been written; the retry layer
// above uses a fresh reply per attempt and discards it on error, exactly as
// a real lost reply behaves. Reply drops on Update, Lease and Release are
// what exercise the server-side idempotency-token dedup.
func (t *FaultTransport) Call(part int, m Method, req, reply any) error {
	dropReply, err := t.fault(part)
	if err != nil {
		return err
	}
	if err := t.Caller.Call(part, m, req, reply); err != nil {
		return err
	}
	if dropReply {
		t.replyDrops.Add(1)
		return lostReply(part)
	}
	return nil
}
