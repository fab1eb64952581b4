package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Serve-side observability: every RPC handler records its wall-clock latency
// into an always-on obs.Histogram, compactions (threshold-triggered and
// RPC-triggered alike) record their fold time, and ServeUpdate counts
// applied operations. RegisterObs names the instruments plus snapshot-store
// gauges (head/floor/base epochs, overlay-ring occupancy, lease counts) in a
// registry; recording happens whether or not a registry ever reads them, at
// the cost of one clock read and a few atomic adds per RPC — invisible next
// to the handler's own work, and measured by the benchmarks that must stay
// within noise with instrumentation on.

// serverMetrics is one Server's always-on instrument set.
type serverMetrics struct {
	rpc [numMethods]obs.Histogram // handler latency per RPC
	// compaction times the store fold itself (both triggers), separate from
	// the Compact RPC envelope so threshold-triggered folds are visible too.
	compaction     obs.Histogram
	updatesApplied obs.Counter // edge/attr operations applied via ServeUpdate
	updateBatches  obs.Counter // update batches that advanced the epoch
}

// obsSince records the elapsed time since start; used as
// `defer obsSince(&h, time.Now())` at handler entry.
func obsSince(h *obs.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// RegisterObs names the server's instruments in r under
// cluster.server.<ID>.*: per-RPC serve latency histograms
// (rpc.<Method>.latency), compaction timings, applied-update counters, and
// snapshot-store gauges (epoch head/floor/base, overlay-ring occupancy and
// entry counts, lease totals, completed compactions). Gauges read the store
// under its own lock at snapshot time; nothing here touches the RPC path.
func (s *Server) RegisterObs(r *obs.Registry) {
	pre := fmt.Sprintf("cluster.server.%d.", s.ID)
	for m := range numMethods {
		r.RegisterHistogram(pre+"rpc."+m.String()+".latency", &s.met.rpc[m])
	}
	r.RegisterHistogram(pre+"compaction.latency", &s.met.compaction)
	r.RegisterCounter(pre+"updates.applied_ops", &s.met.updatesApplied)
	r.RegisterCounter(pre+"updates.batches", &s.met.updateBatches)
	st := s.store
	r.Gauge(pre+"epoch.head", func() int64 { return int64(st.Head()) })
	r.Gauge(pre+"epoch.floor", func() int64 { return int64(st.Floor()) })
	r.Gauge(pre+"epoch.base", func() int64 { return int64(st.BaseEpoch()) })
	r.Gauge(pre+"ring.epochs", func() int64 { return int64(st.Overlay().Epochs) })
	r.Gauge(pre+"ring.adj_entries", func() int64 { return int64(st.Overlay().AdjEntries) })
	r.Gauge(pre+"ring.attr_entries", func() int64 { return int64(st.Overlay().AttrEntries) })
	r.Gauge(pre+"leases.total", func() int64 { t, _ := st.LeaseStats(); return t })
	r.Gauge(pre+"leases.epochs", func() int64 { _, e := st.LeaseStats(); return int64(e) })
	r.Gauge(pre+"compactions", st.Compactions)
}
