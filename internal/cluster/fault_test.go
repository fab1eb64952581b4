package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/storage"
)

// newFaultTrainer wires a deterministic 2-shard cluster trainer over g,
// letting the caller interpose fault/retry layers on the transport and
// choose the trainer config. Same seed and same effective reply stream =>
// same draws, which is the property every chaos test below leans on.
func newFaultTrainer(t *testing.T, g *graph.Graph, seed int64, cache storage.NeighborCache,
	wrap func(Caller) Transport, cfg core.TrainerConfig) (*core.LinkTrainer, *Client, []*Server) {
	t.Helper()
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	local := NewLocalTransport(servers, 0, 0)
	var tr Transport = local
	if wrap != nil {
		tr = wrap(local)
	}
	c := NewClient(a, tr, cache)
	rng := rand.New(rand.NewSource(seed))
	enc := churnEncoder(g.NumVertices(), cfg.HopNums, rng)
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, enc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return trn, c, servers
}

func faultTrainerConfig() core.TrainerConfig {
	return core.TrainerConfig{EdgeType: 0, HopNums: []int{3, 2}, Batch: 16, NegK: 2, LR: 0.05}
}

// TestChaosTrainingBitIdentical is the tentpole acceptance test: depth-4
// pipelined training through a RetryTransport over a seeded FaultTransport
// injecting drops, lost replies, latency spikes, one long shard blackout
// with recovery, and one short error burst. Because every read is slot- or
// seed-pure and retried batches replay against the same pin and seeds, the
// per-step losses must be BIT-identical to a fault-free run — retries and
// parking paper over the faults without consuming a single extra draw.
func TestChaosTrainingBitIdentical(t *testing.T) {
	const steps = 30
	g := churnTestGraph(200)

	// Reference: identical trainer over a pristine transport.
	quiet, _, _ := newFaultTrainer(t, g, 42, storage.NoCache{}, nil, faultTrainerConfig())
	qpl := core.NewPipeline(quiet, core.PipelineConfig{Depth: 4, Workers: 3})
	quiet.SetSource(qpl)
	want, err := quiet.Train(steps)
	if cerr := qpl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: same seed, faults everywhere.
	var ft *FaultTransport
	var rt *RetryTransport
	trn, _, _ := newFaultTrainer(t, g, 42, storage.NoCache{}, func(inner Caller) Transport {
		ft = NewFaultTransport(inner, 2, FaultConfig{
			Seed:          99,
			DropRate:      0.03,
			ReplyDropRate: 0.01,
			LatencyRate:   0.05,
			Latency:       2 * time.Millisecond,
			Outages: []Outage{
				{Part: 1, From: 40, Len: 25}, // blackout with scheduled recovery
				{Part: 0, From: 80, Len: 5},  // short error burst
			},
		})
		rt = NewRetryTransport(ft, 2, CallPolicy{
			Timeout:       2 * time.Second,
			Attempts:      4,
			Backoff:       200 * time.Microsecond,
			MaxBackoff:    2 * time.Millisecond,
			FailThreshold: 3,
			Cooldown:      2 * time.Millisecond,
		}, 7)
		return rt
	}, faultTrainerConfig())
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
	trn.SetSource(pl)
	got, err := trn.Train(steps)
	if cerr := pl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("chaos training failed: %v", err)
	}

	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d: loss diverged under faults: quiet %v, chaos %v", i, want[i], got[i])
		}
	}
	drops, replyDrops, spikes, outages := ft.Injected()
	if drops+replyDrops+outages == 0 {
		t.Fatalf("fault harness injected nothing (drops=%d replyDrops=%d spikes=%d outages=%d); test proves nothing",
			drops, replyDrops, spikes, outages)
	}
	if rt.Retries() == 0 {
		t.Fatal("no retries issued despite injected faults")
	}
	t.Logf("injected: %d drops, %d reply drops, %d spikes, %d outage hits; %d retries, %d fast-fails",
		drops, replyDrops, spikes, outages, rt.Retries(), rt.FastFails())
}

// TestPermanentShardBlackoutParks kills one shard for good mid-training:
// no read answers without it, so the dead shard's breaker opens (its calls
// fast-fail instead of burning the retry budget every batch) and the
// pipeline parks the batches that need it rather than failing or serving
// anything stale. Close ends the parking: Train returns ErrPipelineClosed
// and every goroutine the run started exits.
func TestPermanentShardBlackoutParks(t *testing.T) {
	base := runtime.NumGoroutine()
	g := churnTestGraph(200)
	var ft *FaultTransport
	var rt *RetryTransport
	trn, _, _ := newFaultTrainer(t, g, 11, storage.NewLRUNeighborCache(4096), func(inner Caller) Transport {
		ft = NewFaultTransport(inner, 2, FaultConfig{Seed: 1})
		rt = NewRetryTransport(ft, 2, CallPolicy{
			Timeout:       time.Second,
			Attempts:      2,
			Backoff:       100 * time.Microsecond,
			MaxBackoff:    time.Millisecond,
			FailThreshold: 2,
			Cooldown:      50 * time.Millisecond,
		}, 3)
		return rt
	}, faultTrainerConfig())
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 2, Workers: 2})
	reg := obs.NewRegistry()
	pl.RegisterObs(reg)
	trn.SetSource(pl)
	parks := func() int64 { return reg.Snapshot().Counters["core.pipeline.parks"] }

	// Warm phase: both shards healthy, nothing parks.
	if _, err := trn.Train(5); err != nil {
		t.Fatal(err)
	}
	if n := parks(); n != 0 {
		t.Fatalf("%d parks before any fault", n)
	}

	ft.KillShard(1)
	done := make(chan error, 1)
	go func() {
		_, err := trn.Train(20)
		done <- err
	}()
	deadline := time.Now().Add(20 * time.Second)
	for parks() == 0 || rt.FastFails() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead shard: %d parks, %d fast-fails; want both > 0", parks(), rt.FastFails())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, core.ErrPipelineClosed) {
		t.Fatalf("Train over a dead shard returned %v, want ErrPipelineClosed", err)
	}
	if !rt.BreakerOpen(1) {
		t.Error("dead shard's breaker is not open")
	}
	t.Logf("parks: %d, fast-fails: %d", parks(), rt.FastFails())

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNegativePoolEpochRefresh: with NegRefresh set, the trainer rebuilds
// its negative pool once the observed head epoch outruns the pool by the
// threshold — the pool follows a streaming graph instead of staying frozen
// at construction.
func TestNegativePoolEpochRefresh(t *testing.T) {
	g := churnTestGraph(160)
	cfg := faultTrainerConfig()
	cfg.NegRefresh = 2
	trn, c, servers := newFaultTrainer(t, g, 21, storage.NoCache{}, nil, cfg)

	if _, err := trn.Train(3); err != nil {
		t.Fatal(err)
	}
	if trn.NegRebuilds() != 0 {
		t.Fatalf("pool rebuilt before any update: %d", trn.NegRebuilds())
	}

	// Advance shard epochs past the threshold with churn-type updates on
	// vertices each server owns.
	for part, srv := range servers {
		local := make([]graph.ID, 0, 2)
		for v := range c.Assign.Of {
			if c.Assign.Of[v] == part {
				local = append(local, graph.ID(v))
				if len(local) == 2 {
					break
				}
			}
		}
		for i := 0; i < 3; i++ {
			req := UpdateRequest{Add: []RawEdge{{Src: local[0], Dst: local[1], Type: 1, Weight: 1}}}
			if err := srv.ServeUpdate(req, &UpdateReply{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The first post-update batch observes the new heads (reply watermarks),
	// and the next one refreshes the pool.
	if _, err := trn.Train(4); err != nil {
		t.Fatal(err)
	}
	if trn.NegRebuilds() == 0 {
		t.Fatalf("observed head advanced to %d but the negative pool was never rebuilt", c.MaxObservedHead())
	}
}

// errStats wraps a Caller, failing Stats with a non-transient
// application error.
type errStats struct {
	Caller
	calls int
}

func (e *errStats) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if m != MStats {
		return e.Caller.Call(ctx, part, m, req, reply)
	}
	e.calls++
	return errors.New("cluster: synthetic application error")
}

// TestRetryTransportBudgetAndClassification: transient failures are retried
// up to the budget and surface as ShardDownError; application errors pass
// through on the first attempt, unretried and unwrapped.
func TestRetryTransportBudgetAndClassification(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	local := NewLocalTransport(servers, 0, 0)

	// Outage over the first 2 calls to shard 0: attempts 1-2 fail, 3 lands.
	ft := NewFaultTransport(local, 2, FaultConfig{Outages: []Outage{{Part: 0, From: 0, Len: 2}}})
	rt := NewRetryTransport(ft, 2, CallPolicy{Attempts: 4, Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}, 1)
	var sr StatsReply
	if err := rt.Stats(0, StatsRequest{}, &sr); err != nil {
		t.Fatalf("retries should have outlasted the burst: %v", err)
	}
	if rt.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", rt.Retries())
	}

	// Permanent outage: the budget exhausts into a ShardDownError that
	// classifies as transient (pipelines park on it) and names the shard.
	ft2 := NewFaultTransport(local, 2, FaultConfig{Outages: []Outage{{Part: 1, From: 0}}})
	rt2 := NewRetryTransport(ft2, 2, CallPolicy{Attempts: 3, Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}, 1)
	err = rt2.Stats(1, StatsRequest{}, &sr)
	var sde *ShardDownError
	if !errors.As(err, &sde) || sde.Part != 1 {
		t.Fatalf("want ShardDownError{Part: 1}, got %v", err)
	}
	if !IsTransient(err) || !IsShardDown(err) {
		t.Fatalf("ShardDownError misclassified: transient=%v shardDown=%v", IsTransient(err), IsShardDown(err))
	}

	// Application errors: one attempt, error unchanged.
	es := &errStats{Caller: local}
	rt3 := NewRetryTransport(es, 2, CallPolicy{Attempts: 4}, 1)
	err = rt3.Stats(0, StatsRequest{}, &sr)
	if err == nil || IsTransient(err) {
		t.Fatalf("application error misclassified: %v", err)
	}
	if es.calls != 1 {
		t.Fatalf("application error retried: %d calls", es.calls)
	}
	if rt3.Retries() != 0 {
		t.Fatalf("retries counted for an application error: %d", rt3.Retries())
	}
}

// TestBreakerTransitions drives one breaker through closed -> open ->
// half-open -> closed and the half-open -> re-open failure path.
func TestBreakerTransitions(t *testing.T) {
	p := CallPolicy{FailThreshold: 2, Cooldown: time.Hour}
	var b breaker
	now := time.Now()

	if !b.allow(&p, now) {
		t.Fatal("closed breaker must allow")
	}
	b.failure(&p, now)
	if b.current() != breakerClosed {
		t.Fatal("one failure below threshold must not open")
	}
	b.failure(&p, now)
	if b.current() != breakerOpen {
		t.Fatal("threshold failures must open")
	}
	if b.allow(&p, now.Add(time.Minute)) {
		t.Fatal("open breaker within cooldown must fast-fail")
	}
	if !b.allow(&p, now.Add(2*time.Hour)) {
		t.Fatal("cooldown elapsed: one half-open probe must pass")
	}
	if b.allow(&p, now.Add(2*time.Hour)) {
		t.Fatal("second concurrent half-open probe must be rejected")
	}
	b.failure(&p, now.Add(2*time.Hour))
	if b.current() != breakerOpen {
		t.Fatal("failed probe must re-open")
	}
	if !b.allow(&p, now.Add(5*time.Hour)) {
		t.Fatal("second cooldown elapsed: probe must pass")
	}
	b.success()
	if b.current() != breakerClosed {
		t.Fatal("successful probe must close")
	}
	if !b.allow(&p, now.Add(5*time.Hour)) {
		t.Fatal("closed-again breaker must allow")
	}

	// FailThreshold 0 disables the breaker entirely.
	off := CallPolicy{}
	var b2 breaker
	for i := 0; i < 10; i++ {
		b2.failure(&off, now)
	}
	if !b2.allow(&off, now) {
		t.Fatal("disabled breaker must always allow")
	}
}

// replyLossOnce executes Update but reports the first reply as lost — the
// exact failure idempotency tokens exist for.
type replyLossOnce struct {
	Caller
	lost bool
}

func (w *replyLossOnce) Call(ctx context.Context, part int, m Method, req, reply any) error {
	err := w.Caller.Call(ctx, part, m, req, reply)
	if m == MUpdate && err == nil && !w.lost {
		w.lost = true
		return lostReply(part)
	}
	return err
}

// TestUpdateTokenDedup: a retried Update whose first attempt executed (reply
// lost) must not re-apply the batch — the server returns the recorded reply
// under the idempotency token RetryTransport stamped.
func TestUpdateTokenDedup(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]
	head0 := srv.store.Head()

	w := &replyLossOnce{Caller: NewLocalTransport([]*Server{srv}, 0, 0)}
	rt := NewRetryTransport(w, 1, CallPolicy{Attempts: 3}, 9)
	var v0, v1 graph.ID = 0, 1
	var rep UpdateReply
	err = rt.Update(0, UpdateRequest{Add: []RawEdge{{Src: v0, Dst: v1, Type: 1, Weight: 1}}}, &rep)
	if err != nil {
		t.Fatalf("update through reply loss: %v", err)
	}
	if rep.Added != 1 {
		t.Fatalf("added = %d, want 1", rep.Added)
	}
	if head := srv.store.Head(); head != head0+1 {
		t.Fatalf("head advanced to %d (from %d): the retried batch double-applied", head, head0)
	}

	// Direct double-submit with one token: second call is a pure replay.
	var r1, r2 UpdateReply
	req := UpdateRequest{Add: []RawEdge{{Src: v0, Dst: v1, Type: 1, Weight: 2}}, Token: 0xFEED}
	if err := srv.ServeUpdate(req, &r1); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeUpdate(req, &r2); err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("replayed reply differs: %+v vs %+v", r1, r2)
	}
	if head := srv.store.Head(); head != head0+2 {
		t.Fatalf("head = %d, want %d: tokened replay re-applied", head, head0+2)
	}

}

// TestLeaseReleaseTokenDedup: a replayed Lease must not leak a second
// lease refcount, and a replayed Release must not drop someone else's.
func TestLeaseReleaseTokenDedup(t *testing.T) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]

	var l1, l2 LeaseReply
	lr := LeaseRequest{Token: 0xBEEF}
	if err := srv.ServeLease(lr, &l1); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeLease(lr, &l2); err != nil {
		t.Fatal(err)
	}
	if l1.Epoch != l2.Epoch || l1.Head != l2.Head || l1.AttrHead != l2.AttrHead {
		t.Fatalf("replayed lease reply differs: %+v vs %+v", l1, l2)
	}

	// One release (replayed) must balance the one effective lease.
	rr := ReleaseRequest{Epoch: l1.Epoch, Token: 0xCAFE}
	if err := srv.ServeRelease(rr, &ReleaseReply{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeRelease(rr, &ReleaseReply{}); err != nil {
		t.Fatal(err)
	}
}

// TestTokenNoncesUniqueAcrossClients: two RetryTransports constructed with
// the SAME seed (the common case — every worker passes the same fixed seed)
// must mint disjoint idempotency-token streams. If they shared a nonce,
// workers sharing shard servers would alias each other's entries in the
// server dedup ring: worker B's first Lease would return worker A's recorded
// reply without taking a lease, and a colliding Update would be silently
// dropped.
func TestTokenNoncesUniqueAcrossClients(t *testing.T) {
	g := churnTestGraph(40)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalTransport(FromGraph(g, a), 0, 0)
	ta := NewRetryTransport(local, 1, CallPolicy{}, 1)
	tb := NewRetryTransport(local, 1, CallPolicy{}, 1)

	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		for _, tr := range []*RetryTransport{ta, tb} {
			tok := tr.nextToken()
			if tok == 0 {
				t.Fatal("token 0 minted (reserved for legacy callers)")
			}
			if seen[tok] {
				t.Fatalf("token %#x minted twice across clients with identical seeds", tok)
			}
			seen[tok] = true
		}
	}
}

// releaseSpy counts Release RPCs per shard.
type releaseSpy struct {
	Caller
	mu       sync.Mutex
	releases map[int]int
}

func (s *releaseSpy) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if m == MRelease {
		s.mu.Lock()
		s.releases[part]++
		s.mu.Unlock()
	}
	return s.Caller.Call(ctx, part, m, req, reply)
}

func (s *releaseSpy) count(part int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releases[part]
}

// TestPinUnwindsLeasesOnFailure: a Pin whose Lease round fails on one
// shard returns the error and releases every lease the round did take, so
// a failed Pin leaves no epoch pinned on the live shard.
func TestPinUnwindsLeasesOnFailure(t *testing.T) {
	g := churnTestGraph(80)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	ft := NewFaultTransport(NewLocalTransport(servers, 0, 0), 2, FaultConfig{})
	ft.KillShard(1)
	spy := &releaseSpy{Caller: ft, releases: make(map[int]int)}
	c := NewClient(a, typed(spy), storage.NoCache{})

	if p, err := c.Pin(); err == nil || p != nil {
		t.Fatalf("Pin over a dead shard = %v, %v; want an error", p, err)
	}
	if got := spy.count(0); got != 1 {
		t.Fatalf("unwind sent %d Release(s) to the live shard, want 1", got)
	}
	if got := spy.count(1); got != 0 {
		t.Fatalf("unwind sent %d Release(s) to the shard that took no lease", got)
	}
	if total, _ := servers[0].Store().LeaseStats(); total != 0 {
		t.Fatalf("live shard still holds %d lease(s) after the unwind", total)
	}
	if c.currentPin() != nil {
		t.Fatal("failed Pin installed a current pin")
	}
}
