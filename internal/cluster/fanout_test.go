package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// TestScatterGatherOrderAndErrors covers the primitive itself: every call
// runs despite errors, errors come back indexed like the calls, the
// deterministic aggregate is the lowest-index failure, and a round is not
// bounded: all its calls are in flight at once.
func TestScatterGatherOrderAndErrors(t *testing.T) {
	boom := errors.New("boom")

	var ran atomic.Int64
	errs := scatterGather(5, func(i int) error {
		ran.Add(1)
		if i == 2 || i == 4 {
			return boom
		}
		return nil
	})
	if ran.Load() != 5 {
		t.Fatalf("%d of 5 calls ran", ran.Load())
	}
	if errs[2] != boom || errs[4] != boom || errs[0] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if firstError(errs) != boom {
		t.Fatalf("firstError = %v", firstError(errs))
	}
	if firstError(make([]error, 3)) != nil {
		t.Fatal("firstError of clean round != nil")
	}

	// Every call must be in flight at once (each waits for all n to start;
	// anything sequential or bounded would deadlock into the test timeout).
	const n = 8
	var mu sync.Mutex
	started := 0
	all := make(chan struct{})
	scatterGather(n, func(i int) error {
		mu.Lock()
		started++
		if started == n {
			close(all)
		}
		mu.Unlock()
		<-all
		return nil
	})
}

// TestFanoutBitIdenticalUnderFaultsRace is the satellite -race test: many
// goroutines share ONE concurrent-fan-out Client whose transport injects
// drops, lost replies and shard outages, and every draw must come back
// bit-identical to a fault-free reference client.
// Vertex-/seed-pure draws plus ordered gathers make the reply values
// independent of both scheduling and retries.
func TestFanoutBitIdenticalUnderFaultsRace(t *testing.T) {
	g := churnTestGraph(200)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	batch := []graph.ID{0, 1, 2, 3, 5, 8, 13, 21}
	const width = 4
	seeds := []uint64{101, 202, 303, 404, 505, 606, 707, 808}

	// Fault-free reference.
	ref := NewClient(a, NewLocalTransport(servers, 0), storage.NoCache{})
	wantSample := make(map[uint64][]graph.ID, len(seeds))
	for _, s := range seeds {
		dst := make([]graph.ID, len(batch)*width)
		if err := ref.SampleBatch(dst, batch, 0, width, s); err != nil {
			t.Fatal(err)
		}
		wantSample[s] = dst
	}
	wantPool, wantCounts, err := ref.NegativePool(0)
	if err != nil {
		t.Fatal(err)
	}

	// One shared fan-out client over a faulty stack. Outage windows are
	// shorter than the retry budget so every call eventually lands;
	// FailThreshold 0 keeps the breaker out of the way (an open breaker
	// fails the call, and this test wants every call to land).
	ft := NewFaultTransport(NewLocalTransport(servers, 0), 2, FaultConfig{
		Seed:          5,
		DropRate:      0.05,
		ReplyDropRate: 0.02,
		Outages: []Outage{
			{Part: 1, From: 30, Len: 3},
			{Part: 0, From: 70, Len: 3},
		},
	})
	rt := NewRetryTransport(ft, 2, CallPolicy{
		Timeout:    2 * time.Second,
		Attempts:   8,
		Backoff:    50 * time.Microsecond,
		MaxBackoff: 500 * time.Microsecond,
	}, 7)
	c := NewClient(a, rt, storage.NoCache{})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]graph.ID, len(batch)*width)
			for iter := 0; iter < 12; iter++ {
				seed := seeds[(w+iter)%len(seeds)]
				if err := c.SampleBatch(dst, batch, 0, width, seed); err != nil {
					t.Errorf("SampleBatch: %v", err)
					return
				}
				for i, v := range dst {
					if v != wantSample[seed][i] {
						t.Errorf("seed %d slot %d: draw %d != fault-free %d", seed, i, v, wantSample[seed][i])
						return
					}
				}
				pool, counts, err := c.NegativePool(0)
				if err != nil {
					t.Errorf("NegativePool: %v", err)
					return
				}
				if len(pool) != len(wantPool) {
					t.Errorf("pool size %d != %d", len(pool), len(wantPool))
					return
				}
				for i := range pool {
					if pool[i] != wantPool[i] || counts[i] != wantCounts[i] {
						t.Errorf("pool[%d] diverged", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	drops, replyDrops, _, outages := ft.Injected()
	if drops+replyDrops+outages == 0 {
		t.Fatal("fault harness injected nothing; test proves nothing")
	}
	if rt.Retries() == 0 {
		t.Fatal("no retries issued despite injected faults")
	}
	t.Logf("injected: %d drops, %d reply drops, %d outage hits; %d retries", drops, replyDrops, outages, rt.Retries())
}

// TestNoGoroutineLeakAfterClose closes a depth-4 pipeline (workers mid
// scatter rounds over a latency transport) and checks the process returns
// to its goroutine baseline: fan-out goroutines are strictly per-round
// (WaitGroup-joined before the round returns), so nothing may linger.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()

	g := churnTestGraph(160)
	wrap := func(inner Caller) Transport {
		return NewLatencyTransport(inner, 200*time.Microsecond)
	}
	trn, _, _ := newFaultTrainer(t, g, 17, storage.NoCache{}, wrap, faultTrainerConfig())
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
	trn.SetSource(pl)
	if _, err := trn.Train(3); err != nil {
		t.Fatal(err)
	}
	// Close with prefetched batches still queued and workers likely mid
	// fan-out.
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientMetrics asserts the per-RPC observability counters: sub-request
// counts per method, fan-out round accounting, retry stats pulled from the
// policy layer, and cumulative latency.
func TestClientMetrics(t *testing.T) {
	g := churnTestGraph(120)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	// A deterministic 2-call outage on shard 0 forces retries the metrics
	// must surface.
	ft := NewFaultTransport(NewLocalTransport(servers, 0), 2, FaultConfig{
		Outages: []Outage{{Part: 0, From: 0, Len: 2}},
	})
	rt := NewRetryTransport(ft, 2, CallPolicy{
		Attempts: 4, Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond,
	}, 3)
	c := NewClient(a, rt, storage.NoCache{})

	batch := []graph.ID{0, 1, 2, 3, 4, 5}
	dst := make([]graph.ID, len(batch)*3)
	if err := c.SampleBatch(dst, batch, 0, 3, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.SampleBatch(dst, batch, 0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NegativePool(0); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	if m.RPCs == 0 {
		t.Fatal("RPCs == 0 after three multi-shard rounds")
	}
	for _, method := range []string{"SampleNeighbors", "NegativePool"} {
		mm := m.Methods[method]
		if mm.Calls < 2 {
			t.Fatalf("%s calls = %d, want >= 2 (one per shard)", method, mm.Calls)
		}
		if mm.Latency <= 0 {
			t.Fatalf("%s cumulative latency = %v", method, mm.Latency)
		}
	}
	if m.Fanouts < 3 {
		t.Fatalf("fan-out rounds = %d, want >= 3", m.Fanouts)
	}
	if m.FanoutWidth < 1.5 || m.FanoutWidth > 2.0 {
		t.Fatalf("fan-out width = %.2f, want ~2 over a 2-shard cluster", m.FanoutWidth)
	}
	if m.Retries == 0 || m.Retries != rt.Retries() {
		t.Fatalf("metrics retries = %d, retry layer reports %d (want equal, nonzero)", m.Retries, rt.Retries())
	}
	if s := m.String(); s == "" {
		t.Fatal("Metrics.String empty")
	}
}

// updateSpy records the order Update RPCs reach each shard.
type updateSpy struct {
	Caller
	mu  sync.Mutex
	seq map[int][]graph.ID // part -> destination markers in arrival order
}

func (s *updateSpy) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if m == MUpdate {
		s.mu.Lock()
		s.seq[part] = append(s.seq[part], req.(UpdateRequest).Add[0].Dst)
		s.mu.Unlock()
	}
	return s.Caller.Call(ctx, part, m, req, reply)
}

// TestUpdateStreamParallelApply drives the concurrent Apply path: batches
// for distinct shards deliver in one round, per-shard FIFO order holds, and
// a dead shard's batches return to the queue front in original order while
// the live shard's deliveries still count.
func TestUpdateStreamParallelApply(t *testing.T) {
	g := churnTestGraph(80)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	// Two local vertices per shard to build valid single-edge batches.
	local := make([][]graph.ID, 2)
	for v := range a.Of {
		p := a.Of[v]
		if len(local[p]) < 2 {
			local[p] = append(local[p], graph.ID(v))
		}
	}

	push := func(s *UpdateStream, part int, marker graph.ID) {
		s.Push(part, UpdateRequest{Add: []RawEdge{
			{Src: local[part][0], Dst: marker, Type: 1},
		}})
	}

	// Healthy path: interleaved pushes, one Apply, per-shard FIFO.
	spy := &updateSpy{Caller: NewLocalTransport(servers, 0), seq: make(map[int][]graph.ID)}
	s := NewUpdateStream(typed(spy))
	for i := 0; i < 3; i++ {
		push(s, 0, graph.ID(10+i))
		push(s, 1, graph.ID(20+i))
	}
	n, err := s.Apply(100)
	if err != nil || n != 6 {
		t.Fatalf("Apply = %d, %v; want 6, nil", n, err)
	}
	for part := 0; part < 2; part++ {
		got := spy.seq[part]
		if len(got) != 3 {
			t.Fatalf("shard %d saw %v", part, got)
		}
		for i := range got {
			if want := graph.ID(part*10 + 10 + i); got[i] != want {
				t.Fatalf("shard %d delivery order %v (FIFO broken)", part, got)
			}
		}
	}
	if s.Applied() != 6 || s.Pending() != 0 {
		t.Fatalf("applied=%d pending=%d", s.Applied(), s.Pending())
	}

	// Failure path: shard 1 dead — its batches requeue at the front in
	// order, shard 0's deliveries count, the error surfaces.
	ft := NewFaultTransport(NewLocalTransport(servers, 0), 2, FaultConfig{})
	ft.KillShard(1)
	spy2 := &updateSpy{Caller: ft, seq: make(map[int][]graph.ID)}
	s2 := NewUpdateStream(typed(spy2))
	push(s2, 1, 31)
	push(s2, 0, 41)
	push(s2, 1, 32)
	n, err = s2.Apply(100)
	if err == nil {
		t.Fatal("Apply over a dead shard returned nil error")
	}
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (the live shard's batch)", n)
	}
	if s2.Pending() != 2 {
		t.Fatalf("pending = %d, want the dead shard's 2 batches requeued", s2.Pending())
	}
	// The requeued batches must retry in original order once a later push
	// joins the queue behind them.
	push(s2, 1, 33)
	if _, err := s2.Apply(100); err == nil {
		t.Fatal("dead shard resurrected unexpectedly")
	}
	// The spy sits above the fault layer, so it records attempt order even
	// though nothing reaches the server. Each Apply attempts only the dead
	// shard's FRONT batch (the first failure aborts that shard's round), so
	// both rounds must have led with 31 — 32 or 33 leading would mean the
	// requeue reordered.
	got := spy2.seq[1]
	if len(got) != 2 || got[0] != 31 || got[1] != 31 {
		t.Fatalf("dead shard attempt order %v, want [31 31]", got)
	}
}
