package cluster

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/version"
)

// This file implements incremental maintenance on live graph servers: the
// paper's fourth challenge (dynamic graphs) requires applying structural
// updates without rebuilding the store. Updates land as atomic delta
// batches on the server's multi-version snapshot store: each applied batch
// becomes a new epoch, readers keep answering from the epochs they pinned,
// and partially invalid batches are rejected wholesale (all-or-nothing)
// instead of leaving earlier operations applied. Streaming partitioners
// (internal/partition) are the recommended companions because their
// placement decisions need only local state.

// AttrUpdate replaces the attribute row of one local vertex — the
// vertex-attribute op of an update batch.
type AttrUpdate struct {
	V    graph.ID
	Attr []float64
}

// UpdateRequest carries a batch of edge insertions, edge deletions and
// attribute rewrites for one server. The batch applies atomically: either
// every operation lands (as one new epoch) or none do. Token, when
// non-zero, is a client-supplied idempotency token: a retried request whose
// predecessor already applied returns the recorded reply instead of
// re-applying the batch (RetryTransport stamps it; legacy callers send 0
// and keep at-most-once-per-call semantics).
type UpdateRequest struct {
	Add     []RawEdge
	Remove  []RawEdge
	SetAttr []AttrUpdate
	Token   uint64
}

// UpdateReply reports how many operations were applied and the epoch the
// batch became. A rejected batch reports zeros and the unchanged epoch.
type UpdateReply struct {
	Added, Removed, AttrsSet int
	Epoch                    uint64
}

// ServeUpdate applies a batch of mutations all-or-nothing. Additions and
// attribute rewrites whose vertex is not local, and additions whose
// destination lies outside the vertex universe the server bootstraps its
// clients with, reject the whole batch;
// removals of absent edges are ignored (idempotent deletes, the common
// stream semantics). Each applied batch advances the server's epoch by
// exactly one; in-flight readers are unaffected (their views are immutable
// snapshots) and pinned epochs stay readable until released.
func (s *Server) ServeUpdate(req UpdateRequest, reply *UpdateReply) error {
	defer obsSince(&s.met.rpc[MUpdate], time.Now())
	if r, ok := dedupLookup[UpdateReply](s, req.Token); ok {
		*reply = r
		return nil
	}
	if err := s.checkDestinations(req.Add); err != nil {
		return err
	}
	d := version.Delta{}
	for _, e := range req.Add {
		d.Add = append(d.Add, version.EdgeOp{Src: e.Src, Dst: e.Dst, Type: e.Type, Weight: e.Weight})
	}
	for _, e := range req.Remove {
		d.Remove = append(d.Remove, version.EdgeOp{Src: e.Src, Dst: e.Dst, Type: e.Type, Weight: e.Weight})
	}
	for _, a := range req.SetAttr {
		d.SetAttr = append(d.SetAttr, version.AttrOp{V: a.V, Attr: a.Attr})
	}
	epoch, added, removed, set, err := s.store.Append(d)
	reply.Added, reply.Removed, reply.AttrsSet, reply.Epoch = added, removed, set, epoch
	if err == nil && added+removed+set > 0 {
		s.met.updatesApplied.Add(int64(added + removed + set))
		s.met.updateBatches.Inc()
	}
	if err == nil {
		// Only successful applies are recorded: a rejected batch changed
		// nothing, so retrying it verbatim is safe and should re-validate.
		s.dedupRecord(req.Token, *reply)
	}
	if err == nil && added+removed+set > 0 {
		// Threshold-armed overlay compaction: signal the background
		// compactor, which folds the retention floor into a fresh base once
		// the cumulative overlay maps grow past the bound — an unbounded
		// update stream runs in bounded memory, and the O(V+E) fold never
		// blocks this update's reply.
		s.signalCompact()
	}
	return err
}

// checkDestinations rejects an added edge whose destination is not a vertex
// of the bootstrap assignment: every client that read the edge would index
// its assignment with it. A server without bootstrap information has
// served no client an assignment, and checks nothing.
func (s *Server) checkDestinations(add []RawEdge) error {
	s.mu.RLock()
	boot := s.boot
	s.mu.RUnlock()
	if boot == nil {
		return nil
	}
	for _, e := range add {
		if e.Dst < 0 || e.Dst >= graph.ID(len(boot.Assign)) {
			return fmt.Errorf("cluster: server %d: edge %d->%d: destination outside [0, %d)", s.ID, e.Src, e.Dst, len(boot.Assign))
		}
	}
	return nil
}

// GroupByPartition routes raw mutations to their owning partitions (edges
// and attribute rewrites live with their source/subject vertex), building
// one atomic UpdateRequest per touched server (UpdateStream.PushEdges, the
// serving tier's ApplyUpdate).
func GroupByPartition(part func(graph.ID) int, add, remove []RawEdge, attrs []AttrUpdate) map[int]*UpdateRequest {
	reqs := make(map[int]*UpdateRequest)
	get := func(v graph.ID) *UpdateRequest {
		p := part(v)
		r, ok := reqs[p]
		if !ok {
			r = &UpdateRequest{}
			reqs[p] = r
		}
		return r
	}
	for _, e := range add {
		r := get(e.Src)
		r.Add = append(r.Add, e)
	}
	for _, e := range remove {
		r := get(e.Src)
		r.Remove = append(r.Remove, e)
	}
	for _, a := range attrs {
		r := get(a.V)
		r.SetAttr = append(r.SetAttr, a)
	}
	return reqs
}
