package cluster

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// restartScript wraps a LocalTransport and scripts one shard restart, with
// no clock involved: after restart(down, failLeases), the next down calls
// to the shard fail with a transient ShardDownError, the last of them swaps
// in the fresh server (epoch 0, empty lease table), and then the next
// failLeases Lease calls, to any shard, fail transiently too.
type restartScript struct {
	inner *LocalTransport
	part  int

	swap sync.RWMutex // calls hold it shared; swapping a server holds it exclusively

	mu         sync.Mutex
	down       int
	failLeases int
	fresh      *Server
}

// restart arms the script; down 0 swaps the fresh server in at once.
func (s *restartScript) restart(fresh *Server, down, failLeases int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fresh, s.down, s.failLeases = fresh, down, failLeases
	if down == 0 {
		s.swapIn()
	}
}

// done reports whether every scripted fault has been injected.
func (s *restartScript) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down == 0 && s.failLeases == 0
}

// swapIn installs the fresh server once no call is in flight; s.mu is held.
func (s *restartScript) swapIn() {
	s.swap.Lock()
	s.inner.Servers[s.part] = s.fresh
	s.swap.Unlock()
}

// Call implements Caller: a scripted fault, or the inner call with no swap
// under way.
func (s *restartScript) Call(part int, m Method, req, reply any) error {
	if err := s.fault(part, m == MLease); err != nil {
		return err
	}
	s.swap.RLock()
	defer s.swap.RUnlock()
	return s.inner.Call(part, m, req, reply)
}

func (s *restartScript) Kick(int) {}

func (s *restartScript) Close() error { return s.inner.Close() }

func (s *restartScript) fault(part int, lease bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case part == s.part && s.down > 0:
		s.down--
		if s.down == 0 {
			s.swapIn()
		}
	case lease && s.down == 0 && s.failLeases > 0:
		s.failLeases--
	default:
		return nil
	}
	return &ShardDownError{Part: part, Err: fmt.Errorf("scripted restart: %w", ErrUnreachable)}
}

// TestRestartParksThenRepins: a shard that is unreachable for several
// consecutive assembly attempts and then comes back with a fresh store at
// epoch 0 must cost the trainer nothing but waiting. Each batch parks
// through the downtime, meets "epoch N not reached" on the relaunched
// shard, discards its pin and replays at the new incarnation's epoch 0 —
// at depth 0 and at depth 4 alike. Parks must not use up the re-pin: the
// batch that waited longest is the one that re-pins. In the second case the
// re-pin's own Lease fails transiently once; the batch parks again instead
// of surfacing it.
func TestRestartParksThenRepins(t *testing.T) {
	g := churnTestGraph(160)
	for _, tc := range []struct {
		name             string
		down, failLeases int
	}{
		{"outage", 4, 0},
		{"lease-fails", 0, 1},
	} {
		for _, depth := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				var script *restartScript
				trn, c, servers := newFaultTrainer(t, g, 5, storage.NewLRUNeighborCache(2048), func(inner Caller) Transport {
					script = &restartScript{inner: inner.(*LocalTransport), part: 1}
					return typed(script)
				}, faultTrainerConfig())
				var src *core.Pipeline
				goroutines := 1 // batch-assembling goroutines that may park at once
				if depth == 0 {
					src = core.NewSyncSource(trn)
				} else {
					src = core.NewPipeline(trn, core.PipelineConfig{Depth: depth, Workers: 1})
					goroutines = 2
				}
				defer src.Close()

				steps := 0
				step := func() {
					t.Helper()
					mb, err := src.Next()
					if err != nil {
						t.Fatalf("step %d: %v", steps, err)
					}
					if depth == 0 && mb.Epochs.Mixed() {
						t.Fatalf("step %d: depth-0 batch span %+v is mixed", steps, mb.Epochs)
					}
					if _, err := trn.Step(mb); err != nil {
						t.Fatalf("step %d: %v", steps, err)
					}
					src.Recycle(mb)
					steps++
				}

				// Advance shard 1 so the restart is a head regression, and
				// train until every batch the pipeline holds is pinned
				// past epoch 0 there.
				local1 := localVertices(c.Assign, 1, 2)
				for i := 0; i < 3; i++ {
					req := UpdateRequest{Add: []RawEdge{{Src: local1[0], Dst: local1[1], Type: 1, Weight: 1}}}
					if err := servers[1].ServeUpdate(req, &UpdateReply{}); err != nil {
						t.Fatal(err)
					}
				}
				for pin := c.currentPin(); pin == nil || pin.Epochs[1] == 0; pin = c.currentPin() {
					if steps == 200 {
						t.Fatalf("client never pinned shard 1's advanced epoch in %d steps", steps)
					}
					step()
				}
				for i := 0; i < depth+2; i++ {
					step()
				}

				// Scale the outage with the assembling goroutines, so one of
				// them parks through more than three consecutive attempts.
				script.restart(FromGraph(g, c.Assign)[1], tc.down*goroutines, tc.failLeases)
				for i := 0; i < 12; i++ {
					step()
				}
				if !script.done() {
					t.Fatal("the scripted restart was never exercised")
				}
				if pin := c.currentPin(); pin == nil || pin.Epochs[1] != 0 {
					t.Fatalf("pin after recovery = %+v, want shard 1 at the fresh epoch 0", pin)
				}
			})
		}
	}
}
