package cluster

import (
	"sort"
	"sync"

	"repro/internal/partition"
)

// UpdateStream is the cluster implementation of core.UpdateFeed: a
// concurrent queue of per-server update batches, drained between training
// batches and delivered through the transport's Update RPC. Producers
// (ingest goroutines, connectors, tests) Push batches at any rate; the
// training loop applies them at its own cadence. Each batch applies
// atomically on its shard and advances that shard's epoch, which the
// client's pin manager observes on the next sampling reply — so training
// batches scheduled after an applied update pin the new snapshot
// automatically.
type UpdateStream struct {
	T Transport

	mu      sync.Mutex
	queue   []streamBatch
	applied int
}

type streamBatch struct {
	part int
	req  UpdateRequest
}

// NewUpdateStream creates a feed delivering through t.
func NewUpdateStream(t Transport) *UpdateStream {
	return &UpdateStream{T: t}
}

// Push enqueues one update batch for the server owning part. Safe for
// concurrent use.
func (s *UpdateStream) Push(part int, req UpdateRequest) {
	s.mu.Lock()
	s.queue = append(s.queue, streamBatch{part: part, req: req})
	s.mu.Unlock()
}

// PushEdges groups raw edges by owning partition (edges live with their
// source) and enqueues one batch per touched server: adds, removes and
// attribute rewrites keep the all-or-nothing per-server contract.
func (s *UpdateStream) PushEdges(assign *partition.Assignment, add, remove []RawEdge, attrs []AttrUpdate) {
	reqs := GroupByPartition(assign.Part, add, remove, attrs)
	s.mu.Lock()
	for p, r := range reqs {
		s.queue = append(s.queue, streamBatch{part: p, req: *r})
	}
	s.mu.Unlock()
}

// Pending reports how many update batches are queued.
func (s *UpdateStream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Applied reports how many update batches have been delivered.
func (s *UpdateStream) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Apply implements core.UpdateFeed: deliver up to max queued batches to
// their owning servers. Batches for distinct shards are pushed in one
// concurrent scatter round; batches for one shard keep their queue order
// (cross-shard deliveries were never ordered: different servers,
// independent epochs). On a delivery error the failed batch — and everything
// queued behind it for the same shard — returns to the front of the queue
// in original order, the successes still count, and the lowest-part
// failure surfaces (deterministic regardless of delivery interleaving).
// Apply is single-consumer (the training loop); Push stays safe from any
// goroutine.
func (s *UpdateStream) Apply(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	take := len(s.queue)
	if take > max {
		take = max
	}
	taken := make([]streamBatch, take)
	copy(taken, s.queue)
	s.queue = s.queue[take:]
	s.mu.Unlock()
	if take == 0 {
		return 0, nil
	}

	// Group by owning shard, preserving per-shard FIFO order.
	byPart := make(map[int][]int) // part -> indices into taken, ascending
	for i, b := range taken {
		byPart[b.part] = append(byPart[b.part], i)
	}
	parts := sortedParts(byPart)
	done := make([]int, len(parts)) // delivered prefix length per part
	errs := scatterGather(len(parts), func(i int) error {
		for _, k := range byPart[parts[i]] {
			var reply UpdateReply
			if err := s.T.Update(taken[k].part, taken[k].req, &reply); err != nil {
				return err
			}
			done[i]++
		}
		return nil
	})

	delivered := 0
	var undelivered []int
	for i := range parts {
		delivered += done[i]
		undelivered = append(undelivered, byPart[parts[i]][done[i]:]...)
	}
	sort.Ints(undelivered) // restore original queue order across shards
	s.mu.Lock()
	if len(undelivered) > 0 {
		redo := make([]streamBatch, 0, len(undelivered)+len(s.queue))
		for _, k := range undelivered {
			redo = append(redo, taken[k])
		}
		s.queue = append(redo, s.queue...)
	}
	s.applied += delivered
	s.mu.Unlock()
	return delivered, firstError(errs)
}
