package cluster

import (
	"testing"
	"time"

	"repro/internal/partition"
)

// countingStats counts how many Stats calls reach the inner layer, per
// shard.
type countingStats struct {
	Caller
	calls [8]int
}

func (c *countingStats) Call(part int, m Method, req, reply any) error {
	if m == MStats {
		c.calls[part]++
	}
	return c.Caller.Call(part, m, req, reply)
}

// TestSharedShardHealth: two RetryTransports over the same shard fleet share
// one ShardHealth. The first transport's discovery of a dead shard must
// fast-fail the second with ZERO inner calls (no duplicate probe budget),
// and one transport's successful half-open probe must close the breaker for
// both.
func TestSharedShardHealth(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	local := NewLocalTransport(servers, 0, 0)

	// Shard 1 fails its first 2 calls, then recovers. The counters are
	// per-transport so we can attribute every inner call.
	ft := NewFaultTransport(local, 2, FaultConfig{Outages: []Outage{{Part: 1, From: 0, Len: 2}}})
	ctA := &countingStats{Caller: ft}
	ctB := &countingStats{Caller: ft}

	pol := CallPolicy{Attempts: 2, FailThreshold: 2, Cooldown: 2 * time.Millisecond}
	health := NewShardHealth(2)
	rtA := NewRetryTransportShared(ctA, pol, 1, health)
	rtB := NewRetryTransportShared(ctB, pol, 2, health)
	// Both transports read one fake breaker clock, which moves only when
	// the test advances it: the cooldown cannot expire early on a slow run.
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	rtA.now, rtB.now = clock, clock

	// A's call burns the whole outage (2 attempts = 2 consecutive failures)
	// and opens the shared breaker.
	var sr StatsReply
	if err := rtA.Stats(1, StatsRequest{}, &sr); !IsShardDown(err) {
		t.Fatalf("want ShardDownError from the outage, got %v", err)
	}
	if !health.Open(1) || !rtA.BreakerOpen(1) || !rtB.BreakerOpen(1) {
		t.Fatal("breaker must be open in the shared view and both transports")
	}

	// B fast-fails inside the cooldown without touching the wire.
	if err := rtB.Stats(1, StatsRequest{}, &sr); !IsShardDown(err) {
		t.Fatalf("want fast-fail ShardDownError, got %v", err)
	}
	if ctB.calls[1] != 0 {
		t.Fatalf("B paid %d inner calls to the dead shard; shared health should cost 0", ctB.calls[1])
	}
	if rtB.FastFails() != 1 {
		t.Fatalf("B fast-fails = %d, want 1", rtB.FastFails())
	}

	// The healthy shard is unaffected for both transports.
	if err := rtB.Stats(0, StatsRequest{}, &sr); err != nil {
		t.Fatalf("healthy shard through B: %v", err)
	}
	if err := rtA.Stats(0, StatsRequest{}, &sr); err != nil {
		t.Fatalf("healthy shard through A: %v", err)
	}

	// After the cooldown, B's half-open probe succeeds (the outage is over)
	// and closes the breaker for everyone.
	now = now.Add(pol.Cooldown)
	if err := rtB.Stats(1, StatsRequest{}, &sr); err != nil {
		t.Fatalf("half-open probe through B: %v", err)
	}
	if health.Open(1) || rtA.BreakerOpen(1) {
		t.Fatal("successful probe must close the breaker for all sharers")
	}
	if err := rtA.Stats(1, StatsRequest{}, &sr); err != nil {
		t.Fatalf("A after shared recovery: %v", err)
	}
	if ctA.calls[1] != 3 {
		// 2 outage attempts + 1 post-recovery call; the probe was B's.
		t.Fatalf("A inner calls to shard 1 = %d, want 3", ctA.calls[1])
	}
}
