package serve

import "time"

// refresher is the background incremental re-embedding loop. Each tick it
// (1) probes shard heads so out-of-band churn — writers that do not route
// through ApplyUpdate — ages the cache even at a 100% hit rate, and (2)
// re-embeds the hottest invalidated or lag-expired vertices ahead of
// demand, riding the same coalescer as foreground traffic.
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
		if heads, err := s.cl.ProbeHeads(); err == nil {
			s.cache.NoteHeads(heads)
		}
	}
	if dirty := s.cache.TakeDirty(s.cfg.RefreshBudget); len(dirty) > 0 {
		if _, err := s.EmbedBatch(dirty); err == nil {
			s.refreshed.Add(int64(len(dirty)))
		}
	}
}
