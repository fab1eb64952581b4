package cluster

import (
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/sampling"
)

// This file wires the adaptive sampling planner (internal/plan) into the
// client: plan storage and resolution, the per-lane counter export the
// planner decides against, and the ClientDraws execution path (full-list
// fetch + local slot-pure draws) that only exists as an explicit strategy.
//
// The invariant every path here preserves: a strategy changes WHERE a
// sample is computed, never WHAT it is. Uniform draws are pure functions
// of (seed, batch slot, adjacency list), so cached draws, local draws
// over a fetched list, and server-side draws of the same slot return the
// same vertex — fixed-seed training is bit-identical under any plan and
// under mid-run plan switches.

// SetPlan installs p as the client's active sampling plan (nil restores
// the built-in hybrid behavior). Plans are read lock-free on the hot path
// and must not be mutated after being passed in; the adaptive planner
// publishes a fresh Plan per decision window for exactly that reason.
// Safe to call concurrently with training.
func (c *Client) SetPlan(p *plan.Plan) { c.plan.Store(p) }

// ActivePlan returns the currently installed plan (nil when running the
// built-in default).
func (c *Client) ActivePlan() *plan.Plan { return c.plan.Load() }

// lanePlan resolves the active plan's choice for one lane. ClientDraws
// degrades to Hybrid when the cache cannot admit (a static importance
// cache, or no cache at all): fetching full lists that nothing retains
// would re-ship hub adjacency every batch — strictly worse than the
// server-side draw path the strategy tries to beat.
func (c *Client) lanePlan(t graph.EdgeType, hop int) plan.LanePlan {
	lp := c.plan.Load().For(int(t), hop)
	if lp.Strategy == plan.ClientDraws && !c.cacheAdmits {
		lp.Strategy = plan.Hybrid
	}
	return lp
}

// admit routes one fetched adjacency list toward the neighbor cache,
// honoring the lane's admission choice: a replacing cache skips lanes the
// plan marked cold (their entries would only evict a hot lane's), while a
// non-admitting cache always sees the Observe — for it this is
// revalidation of preloaded entries, not admission.
func (c *Client) admit(lp plan.LanePlan, v graph.ID, t graph.EdgeType, epoch, since uint64, ns []graph.ID) {
	if c.cacheAdmits && !lp.Admit {
		return
	}
	c.Cache.Observe(v, t, 1, epoch, since, ns)
}

// LaneStats snapshots the per-(edge type, hop) sampling-lane counters in
// the planner's vocabulary — the fetch half of Client.NewPlanner.
func (c *Client) LaneStats() map[plan.Lane]plan.LaneStats {
	lanes := c.hops.snapshot()
	out := make(map[plan.Lane]plan.LaneStats, len(lanes))
	for key, hs := range lanes {
		out[plan.Lane{Type: int(key >> 8), Hop: int(key & 0xff)}] = plan.LaneStats{
			Calls:       hs.calls.Load(),
			Slots:       hs.slots.Load(),
			RPCs:        hs.rpcs.Load(),
			Lookups:     hs.lookups.Load(),
			CacheHits:   hs.cacheHits.Load(),
			EpochMisses: hs.epochMiss.Load(),
			Degraded:    hs.degraded.Load(),
			Nanos:       hs.nanos.Load(),
		}
	}
	return out
}

// NewPlanner builds an adaptive planner over this client: it snapshots the
// client's sampling lanes each window and publishes its decisions through
// SetPlan. The caller owns the lifecycle (Start/Close, or manual Step).
func (c *Client) NewPlanner(cfg plan.Config) *plan.Planner {
	return plan.NewPlanner(cfg, c.LaneStats, c.SetPlan)
}

// sampleViaLists is the ClientDraws miss path of sampleBatchSpan: fetch
// the missed vertices' full adjacency lists (one Neighbors RPC per owning
// shard), admit them, and draw every occurrence locally with the same
// slot-pure stream the server would have used — bit-identical values, but
// the next batch hitting these hubs never leaves the process. uniq, occs,
// subUniq and parts are the caller's dedup state; dst slots of cache hits
// are already filled.
func (c *Client) sampleViaLists(dst []graph.ID, t graph.EdgeType, width int, seed uint64, pin *sampling.Pin, span *sampling.EpochSpan, hs *hopStats, lp plan.LanePlan, uniq []graph.ID, occs [][]int, subUniq map[int][]int, parts []int) error {
	hs.rpcs.Add(int64(len(parts)))
	reqs := make([]NeighborsRequest, len(parts))
	for i, p := range parts {
		js := subUniq[p]
		vs := make([]graph.ID, len(js))
		for k, j := range js {
			vs[k] = uniq[j]
		}
		reqs[i] = NeighborsRequest{Vertices: vs, EdgeType: t}
		reqs[i].Pin, reqs[i].Pinned = pinFields(pin, p)
	}
	replies := make([]NeighborsReply, len(parts))
	errs := c.scatter(parts, func(i, p int) error {
		return c.timed(MNeighbors, func() error { return c.T.Neighbors(p, reqs[i], &replies[i]) })
	})
	for i, p := range parts {
		js := subUniq[p]
		if err := errs[i]; err != nil {
			if !c.degraded(err) {
				return err
			}
			// Shard down: stale cached lists through the same slot-pure
			// streams (empty lists self-pad), mirroring the hybrid path.
			for _, j := range js {
				v := uniq[j]
				ns, _ := c.staleList(v, t)
				for _, pos := range occs[j] {
					rng := sampling.SlotRng(seed, pos)
					drawInto(dst[pos*width:(pos+1)*width], v, ns, &rng)
					c.degradedDraws.Add(1)
					hs.degraded.Inc()
				}
			}
			degradeSpan(span, pin)
			continue
		}
		reply := &replies[i]
		c.observe(p, span, pin, reply.Epoch, reply.Head, reply.AttrHead)
		for li, j := range js {
			v := uniq[j]
			ns := reply.Neighbors[li]
			c.admit(lp, v, t, reply.Epoch, replySince(reply.Since, li, reply.Epoch), ns)
			for _, pos := range occs[j] {
				rng := sampling.SlotRng(seed, pos)
				drawInto(dst[pos*width:(pos+1)*width], v, ns, &rng)
			}
		}
	}
	return nil
}
