package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/sampling"
	"repro/internal/storage"
)

// This file implements the client side of epoch pinning: a shared,
// reference-counted pin over the per-server snapshot leases. The training
// scheduler calls Pin once per mini-batch; in steady state (no updates
// since the last lease round) that is a refcount increment with zero RPCs.
// Every sampling reply carries the serving shard's head epoch, so the
// manager notices an update landing anywhere in the cluster and leases a
// fresh snapshot for the next batch — one Lease RPC per server per epoch
// advance, not per batch. Superseded pins release their leases when the
// last batch holding them recycles.

// pinState tracks one issued pin's reference count plus the per-shard
// edge-count and edge-weight stats of the leased epochs (they ride the
// Lease replies). TRAVERSE batch splits under this pin read them instead
// of the head's moving counters.
type pinState struct {
	pin     *sampling.Pin
	refs    int
	dead    bool // lease observed lost (eviction); never handed out again
	edges   [][]int64
	weights [][]float64
	// leased[part] records whether this pin actually holds a server-side
	// lease on part. A degraded Pin records a down shard's last observed
	// head WITHOUT leasing it; releasing that epoch anyway would decrement
	// a lease some other pin holds (nil means every part is leased).
	leased []bool
}

// pinManager lives inside Client.
type pinManager struct {
	mu     sync.Mutex
	cur    *pinState
	states map[*sampling.Pin]*pinState
	seq    uint64
	heads  []atomic.Uint64 // newest head epoch observed per partition
	// attrHeads is the newest attribute-rewriting epoch observed per
	// partition. Every sampling reply carries it, so the attribute cache
	// learns about attribute updates even when it is fully hot and makes
	// no Attrs RPCs of its own.
	attrHeads []atomic.Uint64
}

func newPinManager(parts int) *pinManager {
	return &pinManager{
		states:    make(map[*sampling.Pin]*pinState),
		heads:     make([]atomic.Uint64, parts),
		attrHeads: make([]atomic.Uint64, parts),
	}
}

// noteHead records the head and attr-head epochs observed on a reply from
// part.
func (m *pinManager) noteHead(part int, head, attrHead uint64) {
	advance(&m.heads[part], head)
	advance(&m.attrHeads[part], attrHead)
}

// advance raises a monotone watermark to v.
func advance(w *atomic.Uint64, v uint64) {
	for {
		old := w.Load()
		if v <= old || w.CompareAndSwap(old, v) {
			return
		}
	}
}

// staleLocked reports whether any shard's observed head moved past p.
func (m *pinManager) staleLocked(p *sampling.Pin) bool {
	for part, e := range p.Epochs {
		if m.heads[part].Load() > e {
			return true
		}
	}
	return false
}

// Pin implements sampling.PinSource: it returns a reference to the current
// pin, leasing a fresh cluster-wide snapshot only when the current one is
// stale (an update was observed) or absent.
func (c *Client) Pin() (*sampling.Pin, error) {
	m := c.pins
	m.mu.Lock()
	if m.cur != nil && !m.cur.dead && !m.staleLocked(m.cur.pin) {
		m.cur.refs++
		p := m.cur.pin
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()

	// Lease the current head on every server (outside the lock: RPCs). The
	// lease round scatters to all shards concurrently — an epoch advance
	// costs one parallel round (max RTT), not shards sequential lease RPCs
	// — and replies are folded in ascending part order on this goroutine,
	// so head bookkeeping and error selection stay deterministic.
	epochs := make([]uint64, c.Assign.P)
	edges := make([][]int64, c.Assign.P)
	weights := make([][]float64, c.Assign.P)
	leased := make([]bool, c.Assign.P)
	replies := make([]LeaseReply, c.Assign.P)
	errs := c.scatter(allParts(c.Assign.P), func(i, part int) error {
		return c.timed(MLease, func() error { return c.T.Lease(part, LeaseRequest{}, &replies[i]) })
	})
	for part := 0; part < c.Assign.P; part++ {
		if err := errs[part]; err != nil {
			if c.degraded(err) {
				// Down shard under degradation: pin the last head observed
				// from it with nil stats — edgeSplit then allocates it zero
				// TRAVERSE mass and its reads degrade to stale cache
				// serving. When the shard recovers at a different epoch the
				// read errors surface as evicted/future and the existing
				// re-pin path takes over. No lease was taken, so leased[part]
				// stays false and release paths skip it.
				epochs[part] = m.heads[part].Load()
				edges[part], weights[part] = nil, nil
				c.degradedDraws.Add(1)
				continue
			}
			// Unwind every lease the round DID take (the scatter contacted
			// all shards, so later parts may hold leases too), then surface
			// the lowest-part hard failure.
			var rel []int
			for q := 0; q < c.Assign.P; q++ {
				if errs[q] == nil {
					rel = append(rel, q)
				}
			}
			c.scatter(rel, func(i, q int) error {
				return c.timed(MRelease, func() error {
					return c.T.Release(q, ReleaseRequest{Epoch: replies[q].Epoch}, &ReleaseReply{})
				})
			})
			return nil, err
		}
		reply := &replies[part]
		epochs[part] = reply.Epoch
		leased[part] = true
		edges[part] = reply.EdgesByType
		weights[part] = reply.WeightByType
		// A lease reply is authoritative about the shard's head, so store
		// it outright rather than advancing the monotone watermark: after a
		// server restart (head back near 0) the watermark would otherwise
		// stay above the new heads forever and every Pin would re-lease.
		// A regression also means the shard's epoch NUMBERING restarted:
		// neighbor-cache validity intervals recorded under the old
		// incarnation are incomparable with the new one (an old [6,10]
		// entry would wrongly hit once the fresh store reaches epoch 7),
		// so the cache is flushed.
		if old := m.heads[part].Load(); reply.Head < old {
			if f, ok := c.Cache.(storage.Flusher); ok {
				f.Flush()
			}
		}
		m.heads[part].Store(reply.Head)
		advance(&m.attrHeads[part], reply.AttrHead)
	}

	m.mu.Lock()
	m.seq++
	pin := &sampling.Pin{Stamp: m.seq, Epochs: epochs}
	st := &pinState{pin: pin, refs: 1, edges: edges, weights: weights, leased: leased}
	m.states[pin] = st
	old := m.cur
	m.cur = st
	var release *pinState
	if old != nil && old.refs == 0 {
		delete(m.states, old.pin)
		release = old
	}
	m.mu.Unlock()
	if release != nil {
		c.releaseLeases(release)
	}
	return pin, nil
}

// Unpin implements sampling.PinSource, dropping one reference. The backend
// leases of a superseded (or discarded) pin are released when its last
// reference goes.
func (c *Client) Unpin(p *sampling.Pin) {
	if p == nil {
		return
	}
	m := c.pins
	m.mu.Lock()
	st, ok := m.states[p]
	if !ok {
		m.mu.Unlock()
		return
	}
	if st.refs > 0 {
		st.refs--
	}
	var release *pinState
	if st.refs == 0 && st != m.cur {
		// Release even when the pin was Discarded: only the shard that
		// evicted the epoch lost its lease — the other shards still hold
		// theirs, and skipping the release would pin their overlays
		// forever. Server-side Release of an unknown epoch is a no-op, so
		// the dead shard safely ignores it.
		delete(m.states, p)
		release = st
	}
	m.mu.Unlock()
	if release != nil {
		c.releaseLeases(release)
	}
}

// Discard implements sampling.PinSource: p's lease was observed lost (an
// evicted-epoch error came back under it), so the next Pin leases afresh.
func (c *Client) Discard(p *sampling.Pin) {
	if p == nil {
		return
	}
	m := c.pins
	m.mu.Lock()
	var release *pinState
	if st, ok := m.states[p]; ok {
		st.dead = true
		if m.cur == st {
			m.cur = nil
		}
		if st.refs == 0 {
			delete(m.states, p)
			release = st
		}
	}
	m.mu.Unlock()
	if release != nil {
		c.releaseLeases(release)
	}
}

// releaseLeases best-effort-releases st's per-server leases in one
// concurrent scatter round; a failed release only delays that epoch's
// eviction until the ring bound would have anyway (it can never corrupt
// reads). Parts the pin never leased (degraded pins record a down shard's
// last head without a lease) are skipped: releasing them would decrement a
// lease held by another pin on the same epoch, letting the server evict an
// epoch still in use.
func (c *Client) releaseLeases(st *pinState) {
	parts := make([]int, 0, len(st.pin.Epochs))
	for part := range st.pin.Epochs {
		if st.leased != nil && !st.leased[part] {
			continue
		}
		parts = append(parts, part)
	}
	c.scatter(parts, func(i, part int) error {
		return c.timed(MRelease, func() error {
			return c.T.Release(part, ReleaseRequest{Epoch: st.pin.Epochs[part]}, &ReleaseReply{})
		})
	})
}

// statsFor returns the per-shard edge-count and edge-weight stats leased
// with p, or nils when the pin is unknown (callers then fall back to head
// stats).
func (m *pinManager) statsFor(p *sampling.Pin) ([][]int64, [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.states[p]; ok {
		return st.edges, st.weights
	}
	return nil, nil
}

// currentPin reports, for tests and diagnostics, the pin the manager would
// currently hand out (nil when none is live).
func (c *Client) currentPin() *sampling.Pin {
	m := c.pins
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur == nil {
		return nil
	}
	return m.cur.pin
}

// ReleaseIdlePins releases the backend leases of every pin no batch
// references anymore — including the manager's current pin, which otherwise
// keeps one lease per shard alive for the life of the client. Call it when
// a training session ends (aligraph's Trainer.Close does); long-running
// servers would otherwise accumulate one permanently pinned epoch per
// client session. The client remains usable: the next Pin leases afresh.
func (c *Client) ReleaseIdlePins() {
	m := c.pins
	m.mu.Lock()
	var release []*pinState
	for p, st := range m.states {
		if st.refs == 0 {
			delete(m.states, p)
			release = append(release, st)
		}
	}
	m.cur = nil
	m.mu.Unlock()
	for _, st := range release {
		c.releaseLeases(st)
	}
}
