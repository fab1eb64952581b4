package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// perLayer lists the traced run's metrics in report order, with units. Each
// is printed on every workload; one that a workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"cluster.rpc_per_op", "count"},
	{"cluster.rpc.SampleNeighbors.per_op", "count"},
	{"cluster.rpc.Neighbors.per_op", "count"},
	{"cluster.rpc.SampleEdges.per_op", "count"},
	{"cluster.rpc.NegativePool.per_op", "count"},
	{"cluster.rpc.Attrs.per_op", "count"},
	{"cluster.rpc.Lease.per_op", "count"},
	{"cluster.rpc.Release.per_op", "count"},
	{"cluster.rpc.Update.per_op", "count"},
	{"cluster.rpc.Stats.per_op", "count"},
	{"cluster.rpc_ms_per_op", "ms"},
	{"cluster.rpc.SampleNeighbors.p50_ms", "ms"},
	{"cluster.rpc.Attrs.p50_ms", "ms"},
	{"cluster.rpc_errors", "count"},
	{"cluster.retries", "count"},
	{"cluster.server_ms_per_op", "ms"},
	{"cluster.wire_ms_per_op", "ms"},
	{"cluster.hop_slots_per_op", "count"},
	{"cluster.hop_ms_per_op", "ms"},
	{"cluster.fanout_width", "count"},
	{"cluster.degraded_draws", "count"},
	{"storage.nbr_cache.hit_ratio", "ratio"},
	{"storage.nbr_cache.epoch_miss_ratio", "ratio"},
	{"storage.emb_cache.hit_ratio", "ratio"},
	{"sampling.traverse_ms_per_op", "ms"},
	{"sampling.negative_ms_per_op", "ms"},
	{"sampling.neighborhood_ms_per_op", "ms"},
	{"sampling.attrs_ms_per_op", "ms"},
	{"core.next_wait_ms", "ms"},
	{"core.schedule_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.prefetch_ms", "ms"},
	{"core.consume_ms", "ms"},
	{"core.parks", "count"},
	{"core.replays", "count"},
	{"serve.flush_ms", "ms"},
	{"serve.flush_vertices", "count"},
	{"serve.encoded_per_op", "count"},
	{"serve.invalidated_per_update", "count"},
	{"serve.refreshed", "count"},
	{"serve.revalidated", "count"},
	{"serve.exact_ratio", "ratio"},
	{"version.update_ms", "ms"},
	{"version.epochs_per_s", "1/s"},
	{"version.ring_epochs", "count"},
	{"version.ring_adj_entries", "count"},
	{"version.compactions", "count"},
	{"version.compaction_ms", "ms"},
	{"setup.generate_s", "s"},
	{"setup.partition_s", "s"},
	{"setup.shard_build_s", "s"},
	{"setup.dial_s", "s"},
	{"setup.warmup_s", "s"},
	{"self.op_ms_per_op", "ms"},
	{"self.core_ms_per_op", "ms"},
	{"self.sampling_ms_per_op", "ms"},
	{"self.serve_ms_per_op", "ms"},
	{"self.version_ms_per_op", "ms"},
	{"self.cluster_ms_per_op", "ms"},
	{"budget.train.wait_consume_share", "ratio"},
	{"budget.train.producer_consume_ratio", "ratio"},
	{"budget.sample.layers_share", "ratio"},
	{"budget.sample.rpc_share", "ratio"},
	{"budget.serve_churn.flush_busy_share", "ratio"},
	{"budget.serve_churn.update_share", "ratio"},
	{"trace.overhead.ops_per_s_pct", "%"},
	{"trace.overhead.op_p50_pct", "%"},
	{"trace.overhead.cpu_ms_per_op_pct", "%"},
}

// reading is every layer's counters at one instant.
type reading struct {
	reg  obs.Snapshot
	rpc  map[string][3]int64 // recorder calls, errors, nanos
	lats map[string]int      // recorded latencies so far, per method
}

// tracedWindow holds the readings around a traced window.
type tracedWindow struct {
	s      *instance
	tc     *tracer
	r0, r1 reading
	t0, t1 int64 // tracer clock at the window's edges
}

func read(s *instance) reading {
	r := reading{reg: s.st.reg.Snapshot(), rpc: make(map[string][3]int64), lats: make(map[string]int)}
	for name, st := range s.st.rec.stats {
		r.rpc[name] = [3]int64{st.calls.Load(), st.errors.Load(), st.nanos.Load()}
		r.lats[name] = s.st.rec.recorded(name)
	}
	return r
}

// measureTraced runs a traced window on s. RPCs issued on the trainer's
// pipeline goroutines are parented to a producer span, and those of the
// serving tier's coalescer and refresher to a coalescer span; on sample,
// RPCs belong to the layer call that issued them.
func measureTraced(s *instance, tc *tracer, secs float64) (window, *tracedWindow) {
	var bg int32
	switch s.w.(type) {
	case *trainLoad:
		bg = tc.begin("core.producer", 0, 0)
	case *serveLoad:
		bg = tc.begin("serve.coalescer", 0, 0)
	}
	tc.setParents(0, bg)
	tw := &tracedWindow{s: s, tc: tc, r0: read(s), t0: tc.now()}
	win := measure(s, secs, tc)
	tw.t1, tw.r1 = tc.now(), read(s)
	tc.end(bg)
	return win, tw
}

func (tw *tracedWindow) counter(name string) float64 {
	return float64(tw.r1.reg.Counters[name] - tw.r0.reg.Counters[name])
}

func (tw *tracedWindow) gauge(name string) float64 {
	return float64(tw.r1.reg.Gauges[name] - tw.r0.reg.Gauges[name])
}

// hist sums the count and total nanoseconds the named histograms gained.
func (tw *tracedWindow) hist(names ...string) (count, nanos float64) {
	for _, n := range names {
		a, b := tw.r0.reg.Histograms[n], tw.r1.reg.Histograms[n]
		count += float64(b.Count - a.Count)
		nanos += float64(b.Sum - a.Sum)
	}
	return count, nanos
}

// histMean is the mean, in ms, of the observations the histograms gained.
func (tw *tracedWindow) histMean(names ...string) float64 {
	c, s := tw.hist(names...)
	if c == 0 {
		return 0
	}
	return s / c / 1e6
}

// lanes sums a per-(edge type, hop) sampling-lane counter over every lane.
func (tw *tracedWindow) lanes(field string) float64 {
	sum := 0.0
	for name := range tw.r1.reg.Counters {
		if strings.HasPrefix(name, "cluster.client.sample.") && strings.HasSuffix(name, "."+field) {
			sum += tw.counter(name)
		}
	}
	return sum
}

// shards expands a per-server instrument suffix to every shard's name.
func shards(suffix string) []string {
	out := make([]string, numShards)
	for i := range out {
		out[i] = fmt.Sprintf("cluster.server.%d.%s", i, suffix)
	}
	return out
}

// rpc is what the recorder counted for method during the window.
func (tw *tracedWindow) rpc(method string) (d struct{ calls, errors, nanos float64 }) {
	a, b := tw.r0.rpc[method], tw.r1.rpc[method]
	d.calls, d.errors, d.nanos = float64(b[0]-a[0]), float64(b[1]-a[1]), float64(b[2]-a[2])
	return d
}

// layerOf names the layer a span's self time counts towards, or "".
func layerOf(span string) string {
	switch {
	case span == "op":
		return "op" // the benchmark's own work around the layer calls
	case span == "core.train_step":
		return "core"
	case strings.HasPrefix(span, "sampling."):
		return "sampling"
	case span == "serve.topk":
		return "serve"
	case span == "version.update":
		return "version"
	case strings.HasPrefix(span, "rpc."):
		return "cluster"
	}
	return ""
}

func (tw *tracedWindow) rpcP50(method string) float64 {
	lats := tw.s.st.rec.latencies(method)[tw.r0.lats[method]:tw.r1.lats[method]]
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return ms(quantile(lats, 0.5))
}

// spans returns the spans that lie inside the window.
func (tw *tracedWindow) spans() []span {
	var out []span
	for _, s := range tw.tc.snapshot() {
		if s.Start >= tw.t0 && s.End <= tw.t1 {
			out = append(out, s)
		}
	}
	return out
}

// metrics derives every per-layer metric of the traced window and formats
// the report. plain holds the untraced window's end-to-end metrics, for the
// tracing overhead, and setup the untraced set-up's phases.
func (tw *tracedWindow) metrics(win window, plain map[string]metric, setup phases) (map[string]metric, string) {
	v := make(map[string]float64)
	ops := float64(max(len(win.loop.ops), 1))
	perOp := func(x float64) float64 { return x / ops }
	opMs := 0.0
	for _, o := range win.loop.ops {
		opMs += ms(o.end.Sub(o.start))
	}
	opMs /= ops

	// cluster transport, as the recorder saw it.
	var calls, nanos, errs float64
	for _, m := range rpcNames {
		c := tw.rpc(m)
		calls += c.calls
		errs += c.errors
		nanos += c.nanos
		v["cluster.rpc."+m+".per_op"] = perOp(c.calls) // Bootstrap and Compact are not reported
	}
	v["cluster.rpc_per_op"] = perOp(calls)
	v["cluster.rpc_ms_per_op"] = perOp(nanos / 1e6)
	v["cluster.rpc.SampleNeighbors.p50_ms"] = tw.rpcP50("SampleNeighbors")
	v["cluster.rpc.Attrs.p50_ms"] = tw.rpcP50("Attrs")
	v["cluster.rpc_errors"] = errs
	v["cluster.retries"] = tw.gauge("cluster.client.retries")

	// server handler time vs. what the client saw.
	var handler []string
	for _, m := range rpcNames {
		handler = append(handler, shards("rpc."+m+".latency")...)
	}
	_, serverNs := tw.hist(handler...)
	v["cluster.server_ms_per_op"] = perOp(serverNs / 1e6)
	v["cluster.wire_ms_per_op"] = v["cluster.rpc_ms_per_op"] - v["cluster.server_ms_per_op"]

	// client hop and neighbour cache.
	v["cluster.hop_slots_per_op"] = perOp(tw.lanes("slots"))
	v["cluster.hop_ms_per_op"] = perOp(tw.lanes("nanos") / 1e6)
	if rounds := tw.counter("cluster.client.fanout.rounds"); rounds > 0 {
		v["cluster.fanout_width"] = tw.counter("cluster.client.fanout.width_sum") / rounds
	}
	v["cluster.degraded_draws"] = tw.counter("cluster.client.degraded_draws")
	if lookups := tw.lanes("lookups"); lookups > 0 {
		v["storage.nbr_cache.hit_ratio"] = tw.lanes("cache_hits") / lookups
		v["storage.nbr_cache.epoch_miss_ratio"] = tw.lanes("epoch_misses") / lookups
	}
	if probes := tw.gauge("serve.cache.hits") + tw.gauge("serve.cache.misses"); probes > 0 {
		v["storage.emb_cache.hit_ratio"] = tw.gauge("serve.cache.hits") / probes
	}

	// layer calls the benchmark timed, and self times.
	spans := tw.spans()
	layerNs := make(map[string]float64)
	for _, s := range spans {
		layerNs[s.Name] += float64(s.End - s.Start)
	}
	for _, l := range []string{"traverse", "negative", "neighborhood", "attrs"} {
		v["sampling."+l+"_ms_per_op"] = perOp(layerNs["sampling."+l] / 1e6)
	}
	for name, d := range selfTimes(spans) {
		if l := layerOf(name); l != "" {
			v["self."+l+"_ms_per_op"] += perOp(ms(d))
		}
	}

	// core pipeline and encoder.
	v["core.next_wait_ms"] = tw.histMean("core.pipeline.next_wait.latency")
	v["core.schedule_ms"] = tw.histMean("core.pipeline.stage.schedule.latency")
	v["core.sample_ms"] = tw.histMean("core.pipeline.stage.sample.latency")
	v["core.prefetch_ms"] = tw.histMean("core.pipeline.stage.prefetch.latency")
	v["core.consume_ms"] = tw.histMean("core.pipeline.stage.consume.latency")
	v["core.parks"] = tw.counter("core.pipeline.parks")
	v["core.replays"] = tw.counter("core.pipeline.replays")

	// serving tier.
	v["serve.flush_ms"] = tw.histMean("serve.flush.latency")
	if b := tw.gauge("serve.batches"); b > 0 {
		v["serve.flush_vertices"] = tw.gauge("serve.embedded") / b
	}
	v["serve.encoded_per_op"] = perOp(tw.gauge("serve.embedded"))
	v["serve.refreshed"] = tw.gauge("serve.refreshed")
	v["serve.revalidated"] = tw.gauge("serve.revalidated")

	// version store.
	var updMs, updTotal float64
	if sl, ok := tw.s.w.(*serveLoad); ok {
		upd := sl.updates()
		for _, d := range upd {
			updTotal += ms(d)
		}
		if len(upd) > 0 {
			updMs = updTotal / float64(len(upd))
			v["serve.invalidated_per_update"] = tw.gauge("serve.invalidated") / float64(len(upd))
		}
		if r, err := sl.exactRatio(); err == nil {
			v["serve.exact_ratio"] = r
		}
	}
	v["version.update_ms"] = updMs
	var epochs, ring, adj float64
	for i := 0; i < numShards; i++ {
		pre := fmt.Sprintf("cluster.server.%d.", i)
		epochs += tw.gauge(pre + "epoch.head")
		ring += float64(tw.r1.reg.Gauges[pre+"ring.epochs"])
		adj += float64(tw.r1.reg.Gauges[pre+"ring.adj_entries"])
		v["version.compactions"] += tw.gauge(pre + "compactions")
	}
	v["version.epochs_per_s"] = epochs / win.diag.WindowS
	v["version.ring_epochs"] = ring
	v["version.ring_adj_entries"] = adj
	v["version.compaction_ms"] = tw.histMean(shards("compaction.latency")...)

	// set-up phases, from the untraced set-up.
	v["setup.generate_s"] = setup.generate.Seconds()
	v["setup.partition_s"] = setup.partition.Seconds()
	v["setup.shard_build_s"] = setup.shardBuild.Seconds()
	v["setup.dial_s"] = setup.dial.Seconds()
	v["setup.warmup_s"] = setup.warmup.Seconds()

	// budgets: how each workload's op time decomposes.
	switch tw.s.w.(type) {
	case *trainLoad:
		v["budget.train.wait_consume_share"] = (v["core.next_wait_ms"] + v["core.consume_ms"]) / opMs
		if v["core.consume_ms"] > 0 {
			v["budget.train.producer_consume_ratio"] = (v["core.schedule_ms"] + v["core.sample_ms"] + v["core.prefetch_ms"]) / v["core.consume_ms"]
		}
	case *sampleLoad:
		v["budget.sample.layers_share"] = (v["sampling.traverse_ms_per_op"] + v["sampling.negative_ms_per_op"] +
			v["sampling.neighborhood_ms_per_op"] + v["sampling.attrs_ms_per_op"]) / opMs
		v["budget.sample.rpc_share"] = v["cluster.rpc_ms_per_op"] / opMs
	case *serveLoad:
		_, flushNs := tw.hist("serve.flush.latency")
		v["budget.serve_churn.flush_busy_share"] = flushNs / 1e9 / win.diag.WindowS
		v["budget.serve_churn.update_share"] = updTotal / (updTotal + opMs*ops)
	}

	// tracing overhead: traced window against the untraced one.
	traced := win.endToEnd(0)
	pct := func(k string) float64 { return 100 * (traced[k].Value - plain[k].Value) / plain[k].Value }
	v["trace.overhead.ops_per_s_pct"] = pct("ops_per_s")
	v["trace.overhead.op_p50_pct"] = pct("op_p50_ms")
	v["trace.overhead.cpu_ms_per_op_pct"] = pct("cpu_ms_per_op")

	out := make(map[string]metric, len(perLayer))
	var b strings.Builder
	fmt.Fprintf(&b, "traced window: %d ops in %.2fs, mean op %.3f ms; untraced p50 %.3f ms, traced p50 %.3f ms\n",
		len(win.loop.ops), win.diag.WindowS, opMs, plain["op_p50_ms"].Value, traced["op_p50_ms"].Value)
	for _, pl := range perLayer {
		out[pl.name] = metric{finite(v[pl.name]), pl.unit}
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", pl.name, out[pl.name].Value, pl.unit)
	}
	return out, b.String()
}
