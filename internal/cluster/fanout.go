package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file is the concurrent scatter-gather primitive every multi-shard
// call site in the package is built on, plus the per-RPC observability
// counters (Client.Metrics) it feeds.
//
// A hop of a mini-batch touches up to P servers. Issuing those sub-requests
// sequentially prices the hop at shards x RTT; scatterGather launches them
// together so the hop costs max(RTT) regardless of shard count. The
// determinism story does not depend on arrival order: every sub-request
// writes only its own reply slot, and the caller stitches replies back in
// ascending part order on its own goroutine after the whole round lands —
// so cache admissions, span observations and error selection happen in
// exactly the order a sequential client would produce.

// scatterGather runs call(0..n-1) and returns the per-call errors. A single
// call runs inline; otherwise every call gets its own goroutine, all
// launched at once. The returned slice is indexed like the calls; the
// caller decides how errors aggregate (by convention: the lowest-index
// failure wins, so retries and tests stay deterministic).
func scatterGather(n int, call func(i int) error) []error {
	errs := make([]error, n)
	if n == 1 {
		errs[0] = call(0)
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// firstError returns the lowest-index non-nil error — the deterministic
// aggregate of a scatter round's failures.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedParts returns the keys of a part-keyed map in ascending order, so
// every scatter round (and its gather) is reproducible regardless of map
// iteration order.
func sortedParts[V any](m map[int]V) []int {
	parts := make([]int, 0, len(m))
	for p := range m {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts
}

// allParts returns [0, p).
func allParts(p int) []int {
	parts := make([]int, p)
	for i := range parts {
		parts[i] = i
	}
	return parts
}

// methodCounters accumulates one RPC method's error count and wall-clock
// latency distribution (including the retry layer's attempts and backoff,
// since the client times the whole transport call). The call count is the
// histogram's observation count — latency moved from a cumulative-only
// counter to an obs.Histogram so tail questions (p50/p99/max) are
// answerable; the old cumulative Latency field survives as the histogram
// sum.
type methodCounters struct {
	errors obs.Counter
	lat    obs.Histogram
}

// clientMetrics is the always-on per-RPC observability state of a Client:
// lock-free counters and histograms on the call path, snapshotted by
// Client.Metrics.
type clientMetrics struct {
	rpc      [numMethods]methodCounters // indexed by Method
	fanouts  obs.Counter                // scatter rounds spanning more than one shard
	fanWidth obs.Counter                // cumulative sub-requests across those rounds
}

// MethodMetrics is one RPC method's cumulative counters. Calls and Latency
// are derived from the latency histogram (count and sum), keeping the
// pre-histogram fields intact; P50/P99 are <2x-upper-bound estimates from
// the log buckets and Max is exact.
type MethodMetrics struct {
	Calls   int64
	Errors  int64
	Latency time.Duration // cumulative wall clock across Calls (histogram sum)
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// hopStats is one (edge type, hop) sampling lane's always-on counters: every
// batch expansion the client executes is attributed to the hop the
// NEIGHBORHOOD sampler tagged (sampling.EpochView.SetHop; hop 0 collects
// direct, untagged calls): time, per-shard sub-request counts and cache
// outcomes per lane.
type hopStats struct {
	calls     obs.Counter // batch expansions (one per SampleBatch)
	slots     obs.Counter // batch slots across those calls (len(vs))
	rpcs      obs.Counter // per-shard sub-requests issued
	lookups   obs.Counter // cache probes (one per unique vertex probed)
	cacheHits obs.Counter // unique vertices served from the neighbor cache
	epochMiss obs.Counter // cache probes that failed only on epoch validity
	nanos     obs.Counter // wall clock, whole expansions
}

// hopMetrics is a copy-on-write map of (edge type, hop) -> *hopStats. The
// hot path pays one atomic load plus a small-map lookup; inserting a lane
// (first time a (type, hop) pair is seen — a handful per training run)
// copies the map under the mutex.
type hopMetrics struct {
	mu sync.Mutex
	m  atomic.Pointer[map[uint32]*hopStats]
}

func hopLaneKey(t graph.EdgeType, hop int) uint32 {
	return uint32(uint16(t))<<8 | uint32(hop&0xff)
}

// get returns the lane for (t, hop), creating it on first use.
func (h *hopMetrics) get(t graph.EdgeType, hop int) *hopStats {
	key := hopLaneKey(t, hop)
	if m := h.m.Load(); m != nil {
		if hs := (*m)[key]; hs != nil {
			return hs
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.m.Load()
	if old != nil {
		if hs := (*old)[key]; hs != nil {
			return hs
		}
	}
	next := make(map[uint32]*hopStats)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	hs := &hopStats{}
	next[key] = hs
	h.m.Store(&next)
	return hs
}

// snapshot returns the current lane map (nil when nothing was recorded).
func (h *hopMetrics) snapshot() map[uint32]*hopStats {
	if m := h.m.Load(); m != nil {
		return *m
	}
	return nil
}

// HopMetrics is one (edge type, hop) lane's cumulative counters as exposed
// by Client.Metrics.
type HopMetrics struct {
	Calls       int64
	Slots       int64
	RPCs        int64
	Lookups     int64
	CacheHits   int64
	EpochMisses int64
	Time        time.Duration
}

// Metrics is a snapshot of a Client's per-RPC observability counters. RPCs
// counts per-shard sub-requests as the client issued them; Retries and
// FastFails are pulled from the retry layer when the client's transport
// provides one (RetryStats). FanoutWidth is the average number of shards a
// multi-shard scatter round spanned; the latency of such a round is the max
// over those shards rather than their sum.
type Metrics struct {
	RPCs        int64
	Retries     int64
	FastFails   int64
	Fanouts     int64
	FanoutWidth float64
	Methods     map[string]MethodMetrics
	// Hops breaks the sampling work down per (edge type, hop) lane, keyed
	// "t<type>.h<hop>" (hop 0 collects direct calls made outside a tagged
	// NEIGHBORHOOD expansion).
	Hops map[string]HopMetrics
}

// RetryStats is implemented by policy-layer transports (RetryTransport)
// that can report retry activity; Client.Metrics surfaces it when present.
type RetryStats interface {
	Retries() int64
	FastFails() int64
}

// String formats the snapshot for CLIs (aligraph-train -stats) and logs.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rpc: %d sub-requests, %d retries, %d fast-fails\n", m.RPCs, m.Retries, m.FastFails)
	fmt.Fprintf(&b, "fan-out: %d multi-shard rounds, avg width %.2f\n", m.Fanouts, m.FanoutWidth)
	names := make([]string, 0, len(m.Methods))
	for name, mm := range m.Methods {
		if mm.Calls > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		mm := m.Methods[name]
		avg := time.Duration(0)
		if mm.Calls > 0 {
			avg = mm.Latency / time.Duration(mm.Calls)
		}
		fmt.Fprintf(&b, "  %-16s calls=%-7d errors=%-4d total=%-12v avg=%-10v p50=%-10v p99=%-10v max=%v\n",
			name, mm.Calls, mm.Errors, mm.Latency.Round(time.Microsecond), avg.Round(time.Microsecond),
			mm.P50.Round(time.Microsecond), mm.P99.Round(time.Microsecond), mm.Max.Round(time.Microsecond))
	}
	if len(m.Hops) > 0 {
		fmt.Fprintf(&b, "sampling lanes (edge type x hop):\n")
		lanes := make([]string, 0, len(m.Hops))
		for lane := range m.Hops {
			lanes = append(lanes, lane)
		}
		sort.Strings(lanes)
		for _, lane := range lanes {
			hm := m.Hops[lane]
			avg := time.Duration(0)
			if hm.Calls > 0 {
				avg = hm.Time / time.Duration(hm.Calls)
			}
			fmt.Fprintf(&b, "  %-8s calls=%-7d slots=%-8d rpcs=%-7d cache-hits=%-8d epoch-miss=%-6d avg=%v\n",
				lane, hm.Calls, hm.Slots, hm.RPCs, hm.CacheHits, hm.EpochMisses, avg.Round(time.Microsecond))
		}
	}
	return b.String()
}

// timed wraps one per-shard transport call with the method's counters.
func (c *Client) timed(m Method, call func() error) error {
	start := time.Now()
	err := call()
	mc := &c.met.rpc[m]
	mc.lat.Observe(int64(time.Since(start)))
	if err != nil {
		mc.errors.Inc()
	}
	return err
}

// scatter is the Client's fan-out entry point: call(i, parts[i]) runs for
// every target shard at once, and the per-part errors come back indexed like parts. Callers gather replies in
// parts order afterwards (parts are pre-sorted), which keeps every
// aggregation deterministic.
func (c *Client) scatter(parts []int, call func(i, part int) error) []error {
	if len(parts) > 1 {
		c.met.fanouts.Add(1)
		c.met.fanWidth.Add(int64(len(parts)))
	}
	return scatterGather(len(parts), func(i int) error { return call(i, parts[i]) })
}

// Metrics snapshots the client's per-RPC counters. Safe to call
// concurrently with training; counters are cumulative since NewClient.
func (c *Client) Metrics() Metrics {
	m := Metrics{
		Fanouts: c.met.fanouts.Load(),
		Methods: make(map[string]MethodMetrics, numMethods),
	}
	for i := range numMethods {
		mc := &c.met.rpc[i]
		hs := mc.lat.Snapshot()
		mm := MethodMetrics{
			Calls:   hs.Count,
			Errors:  mc.errors.Load(),
			Latency: time.Duration(hs.Sum),
			P50:     time.Duration(hs.P50),
			P99:     time.Duration(hs.P99),
			Max:     time.Duration(hs.Max),
		}
		m.Methods[i.String()] = mm
		m.RPCs += mm.Calls
	}
	if m.Fanouts > 0 {
		m.FanoutWidth = float64(c.met.fanWidth.Load()) / float64(m.Fanouts)
	}
	if rs, ok := c.T.(RetryStats); ok {
		m.Retries = rs.Retries()
		m.FastFails = rs.FastFails()
	}
	if lanes := c.hops.snapshot(); len(lanes) > 0 {
		m.Hops = make(map[string]HopMetrics, len(lanes))
		for key, hs := range lanes {
			m.Hops[fmt.Sprintf("t%d.h%d", key>>8, key&0xff)] = HopMetrics{
				Calls:       hs.calls.Load(),
				Slots:       hs.slots.Load(),
				RPCs:        hs.rpcs.Load(),
				Lookups:     hs.lookups.Load(),
				CacheHits:   hs.cacheHits.Load(),
				EpochMisses: hs.epochMiss.Load(),
				Time:        time.Duration(hs.nanos.Load()),
			}
		}
	}
	return m
}

// RegisterObs names the client's always-on instruments in r: per-method RPC
// latency histograms and error counters (cluster.client.rpc.<Method>.*),
// fan-out counters, retry-layer and cache gauges, and a
// collector emitting the per-(edge type, hop) sampling lanes as
// cluster.client.sample.t<type>.h<hop>.* series. Registration is one-time
// setup; the hot paths keep writing the same instruments whether or not a
// registry ever reads them.
func (c *Client) RegisterObs(r *obs.Registry) {
	for i := range numMethods {
		mc := &c.met.rpc[i]
		r.RegisterHistogram("cluster.client.rpc."+i.String()+".latency", &mc.lat)
		r.RegisterCounter("cluster.client.rpc."+i.String()+".errors", &mc.errors)
	}
	r.RegisterCounter("cluster.client.fanout.rounds", &c.met.fanouts)
	r.RegisterCounter("cluster.client.fanout.width_sum", &c.met.fanWidth)
	if rs, ok := c.T.(RetryStats); ok {
		r.Gauge("cluster.client.retries", rs.Retries)
		r.Gauge("cluster.client.fast_fails", rs.FastFails)
	}
	r.Gauge("cluster.client.cache.vertices", func() int64 { return int64(c.Cache.CachedVertices()) })
	if cc, ok := c.Cache.(interface{ Counters() (int64, int64, int64) }); ok {
		r.Gauge("cluster.client.cache.hits", func() int64 { h, _, _ := cc.Counters(); return h })
		r.Gauge("cluster.client.cache.misses", func() int64 { _, m, _ := cc.Counters(); return m })
		r.Gauge("cluster.client.cache.epoch_misses", func() int64 { _, _, e := cc.Counters(); return e })
	}
	r.Collect(func(emit func(name string, v int64)) {
		for key, hs := range c.hops.snapshot() {
			p := fmt.Sprintf("cluster.client.sample.t%d.h%d.", key>>8, key&0xff)
			emit(p+"calls", hs.calls.Load())
			emit(p+"slots", hs.slots.Load())
			emit(p+"rpcs", hs.rpcs.Load())
			emit(p+"lookups", hs.lookups.Load())
			emit(p+"cache_hits", hs.cacheHits.Load())
			emit(p+"epoch_misses", hs.epochMiss.Load())
			emit(p+"nanos", hs.nanos.Load())
		}
	})
}
