package serve

import (
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
)

// refresher is the background incremental re-embedding loop. Each tick it
// (1) probes shard heads so out-of-band churn — writers that do not route
// through ApplyUpdate — ages the cache even at a 100% hit rate, (2)
// restores lag-expired entries whose dependencies are provably unchanged
// (one row-level Since round instead of a recompute), and (3) re-embeds the
// hottest invalidated vertices ahead of demand, riding the same coalescer
// as foreground traffic.
func (s *Server) refresher() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.RefreshEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.refreshOnce()
		}
	}
}

func (s *Server) refreshOnce() {
	if s.cl != nil {
		if heads, _, err := s.cl.ProbeHeads(); err == nil {
			s.cache.NoteHeads(heads)
		}
		if stale := s.cache.Stale(s.cfg.MaxLag, s.cfg.RefreshBudget); len(stale) > 0 {
			s.revalidate(stale)
		}
	}
	if dirty := s.cache.TakeDirty(s.cfg.RefreshBudget); len(dirty) > 0 {
		if _, err := s.EmbedBatch(dirty); err == nil {
			s.refreshed.Add(int64(len(dirty)))
		}
	}
}

// revalidate tries to restore lag-expired cache entries without recomputing
// them: one SinceOf round over the union of their dependency sets yields,
// per dependency, the proof "unchanged over [changedAt, upto]". An entry
// whose every dependency last changed at or before the entry's proven basis
// is still exact, and its basis rises to the smallest upto among its
// dependencies on each shard (a shard hosting none of its dependencies
// cannot affect it, so it rises to that shard's observed head).
func (s *Server) revalidate(stale []storage.StaleEntry) {
	seen := make(map[graph.ID]int)
	var union []graph.ID
	for _, e := range stale {
		for _, d := range e.Deps {
			if _, ok := seen[d]; !ok {
				seen[d] = len(union)
				union = append(union, d)
			}
		}
	}
	heads := s.cl.ObservedHeads(nil)
	adj, attr, upto, err := s.cl.SinceOf(union, s.cfg.EdgeType)
	if err != nil {
		return // no proof without every shard's stamps; recompute via the dirty path
	}
	cand := make([]uint64, s.parts)
	has := make([]bool, s.parts)
	for _, e := range stale {
		for p := range cand {
			cand[p], has[p] = 0, false
		}
		ok := true
		for _, d := range e.Deps {
			k := seen[d]
			p := s.cl.Assign.Part(d)
			changed := adj[k]
			if attr[k] > changed {
				changed = attr[k]
			}
			if changed > e.Basis[p] {
				ok = false // d moved past the proven basis: embedding is void
				break
			}
			if !has[p] || upto[k] < cand[p] {
				cand[p], has[p] = upto[k], true
			}
		}
		if !ok {
			continue
		}
		basis := make([]uint64, s.parts)
		for p := range basis {
			if has[p] {
				basis[p] = cand[p]
			} else if p < len(heads) {
				basis[p] = heads[p]
			}
		}
		s.cache.SetBasis(e.V, basis)
		s.revalidated.Add(1)
	}
}
