package cluster

import (
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// TestRPCServerRestartMidTraining is the transport-level recovery test: a
// live aligraph-server is killed and relaunched on the same address — with
// a FRESH store whose epoch numbering restarts at 0 — under depth-4
// pipelined training. The retry layer must outwait the downtime, the
// transport must redial, the pin manager must accept the head regression
// (re-lease at the new incarnation's epoch 0, flushing the neighbor cache),
// and training must continue without a panic or a surfaced error.
func TestRPCServerRestartMidTraining(t *testing.T) {
	g := churnTestGraph(160)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := FromGraph(g, a)
	rs0, err := ServeRPC(servers[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs0.Close()
	rs1, err := ServeRPC(servers[1], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs1.Close()
	addr1 := rs1.Addr()

	rpcTr, err := DialRPC([]string{rs0.Addr(), addr1})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRetryTransport(rpcTr, 2, CallPolicy{
		Timeout:       2 * time.Second,
		Attempts:      4,
		Backoff:       time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		FailThreshold: 3,
		Cooldown:      20 * time.Millisecond,
	}, 5)
	defer rt.Close()

	c := NewClient(a, rt, storage.NewLRUNeighborCache(2048))
	rng := rand.New(rand.NewSource(5))
	cfg := faultTrainerConfig()
	enc := churnEncoder(g.NumVertices(), cfg.HopNums, rng)
	trn, err := core.NewLinkTrainerOver(NewEnv(c, 1), c, enc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPipeline(trn, core.PipelineConfig{Depth: 4, Workers: 3})
	trn.SetSource(pl)
	defer pl.Close()

	// Progress is judged by conditions, never by step counts: how many
	// batches the pipeline runs ahead before a pin advance is observed
	// depends on scheduling. Each wait is capped so a hang fails clearly.
	const maxSteps = 200
	var losses []float64
	stepUntil := func(what string, done func() bool) {
		t.Helper()
		for start := len(losses); !done(); {
			if len(losses)-start == maxSteps {
				t.Fatalf("%s: not reached in %d steps", what, maxSteps)
			}
			l, err := trn.StepNext()
			if err != nil {
				t.Fatalf("step %d: %v", len(losses), err)
			}
			losses = append(losses, l)
		}
	}
	shard1Pinned := func(atLeast, atMost uint64) func() bool {
		return func() bool {
			pin := c.currentPin()
			return pin != nil && pin.Epochs[1] >= atLeast && pin.Epochs[1] <= atMost
		}
	}

	stepUntil("warm-up", func() bool { return len(losses) >= 8 })

	// Advance shard 1's epoch so the eventual restart is a genuine head
	// REGRESSION, not a benign rejoin at the same numbering.
	local1 := localVertices(a, 1, 2)
	for i := 0; i < 3; i++ {
		req := UpdateRequest{Add: []RawEdge{{Src: local1[0], Dst: local1[1], Type: 1, Weight: 1}}}
		if err := servers[1].ServeUpdate(req, &UpdateReply{}); err != nil {
			t.Fatal(err)
		}
	}
	stepUntil("pre-restart pin at shard 1's advanced epoch", shard1Pinned(1, math.MaxUint64))

	// Kill: the listener closes AND established connections are severed, so
	// in-flight calls observe io.EOF exactly as with a dead process.
	if err := rs1.Close(); err != nil {
		t.Fatal(err)
	}

	// Relaunch on the same address with a fresh shard (epoch 0, empty lease
	// table), retrying the bind while the OS releases the port.
	fresh := FromGraph(g, a)[1]
	var rs1b *RPCServer
	for i := 0; ; i++ {
		rs1b, err = ServeRPC(fresh, addr1)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer rs1b.Close()

	// The head regression is adopted — a live pin leases the new
	// incarnation's epoch 0 — and training carries on past it.
	restartAt := len(losses)
	atFresh := shard1Pinned(0, 0)
	stepUntil("post-restart pin at the fresh incarnation's epoch 0", func() bool {
		return atFresh() && len(losses) >= restartAt+8
	})

	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("step %d: non-finite loss %v", i, l)
		}
	}
	if rt.Retries() == 0 {
		t.Fatal("restart produced no retries; the outage window was never exercised")
	}
}

// localVertices returns the first n vertices owned by part.
func localVertices(a *partition.Assignment, part, n int) []graph.ID {
	out := make([]graph.ID, 0, n)
	for v := range a.Of {
		if a.Of[v] == part {
			out = append(out, graph.ID(v))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// TestDialRPCFailsOnDeadAddress: DialRPC connects to every shard up
// front, so an unreachable address fails construction.
func TestDialRPCFailsOnDeadAddress(t *testing.T) {
	// A listener we close immediately: the address is valid but dead.
	g := churnTestGraph(40)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]
	rs, err := ServeRPC(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := rs.Addr()
	rs.Close()

	if _, err := DialRPC([]string{addr}); err == nil {
		t.Fatal("dialing a dead address must fail construction")
	}
}

// TestRPCTransportDoubleClose: Close is idempotent and calls after Close
// fail cleanly instead of panicking or redialing.
func TestRPCTransportDoubleClose(t *testing.T) {
	g := churnTestGraph(40)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := FromGraph(g, a)[0]
	rs, err := ServeRPC(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	tr, err := DialRPC([]string{rs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	var sr StatsReply
	if err := tr.Stats(0, StatsRequest{}, &sr); err == nil {
		t.Fatal("call after Close must fail")
	}
}

// TestDeadlineSeversSilentConnection: a server that accepts and then goes
// silent (a partition with no FIN/RST) must not pin every retry to the same
// hung connection. An attempt whose deadline expires with nothing read
// since it was written closes its connection, and the next attempt dials a
// FRESH one, observable as one accepted conn per attempt. Close then leaves
// no reader goroutine behind.
func TestDeadlineSeversSilentConnection(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go io.Copy(io.Discard, conn) // swallow requests, never reply
		}
	}()

	base := runtime.NumGoroutine()
	tr, err := DialRPC([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rt := NewRetryTransport(tr, 1, CallPolicy{
		Timeout:    50 * time.Millisecond,
		Attempts:   3,
		Backoff:    time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
	}, 1)

	var sr StatsReply
	if err := rt.Stats(0, StatsRequest{}, &sr); !IsShardDown(err) {
		t.Fatalf("want ShardDownError from a silent server, got %v", err)
	}
	if got := accepted.Load(); got != 3 {
		t.Fatalf("accepted %d connections for 3 attempts; retries re-queued on a hung conn", got)
	}
	tr.mu.Lock()
	c0 := tr.conns[0]
	tr.mu.Unlock()
	if c0 != nil {
		t.Fatal("deadline expiry left the hung connection installed")
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineFailsOnlyItsOwnCall: one call's deadline must not fail a
// concurrent on-time call to the same shard. A scripted peer never answers
// frame 1, answers frame 2 at once and holds frame 3 until released. Call A
// (frame 1) runs under a 50-ms deadline; calls C (frame 2) and B (frame 3)
// share A's connection through a second retry layer with no deadline. Once
// A has failed, the peer answers B, and B must succeed: A's expiry may not
// sever a connection that has answered since A was written.
func TestDeadlineFailsOnlyItsOwnCall(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	got1, got3, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; ; i++ {
			frame, err := readFrame(conn, nil)
			if err != nil {
				return
			}
			h, _, _ := parseFrame(frame)
			switch i {
			case 0:
				close(got1)
				continue // never answered
			case 2:
				close(got3)
				<-release
			}
			frame, _ = putFrame(nil, h, methods[MStats].putReply, &StatsReply{NumVertices: i})
			conn.Write(frame)
		}
	}()

	tr, err := DialRPC([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	timed := NewRetryTransport(tr, 1, CallPolicy{Timeout: 50 * time.Millisecond, Attempts: 1}, 1)
	untimed := NewRetryTransport(tr, 1, CallPolicy{}, 2)

	aDone := make(chan error, 1)
	go func() {
		var r StatsReply
		aDone <- timed.Stats(0, StatsRequest{}, &r)
	}()
	<-got1
	var c StatsReply
	if err := untimed.Stats(0, StatsRequest{}, &c); err != nil || c.NumVertices != 1 {
		t.Fatalf("call C: %+v, %v", c, err)
	}
	bDone := make(chan error, 1)
	var b StatsReply
	go func() { bDone <- untimed.Stats(0, StatsRequest{}, &b) }()
	<-got3
	if err := <-aDone; !IsShardDown(err) {
		t.Fatalf("call A: want ShardDownError from its deadline, got %v", err)
	}
	close(release)
	if err := <-bDone; err != nil || b.NumVertices != 2 {
		t.Fatalf("call B failed with A's deadline: %+v, %v", b, err)
	}
}
