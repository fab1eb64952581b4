package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testScale keeps the count-exactness runs small (1.1k vertices).
const testScale = 0.25

// fixedCounts runs ops ops per caller of a workload on a fresh stack and
// returns its counts: RPCs per method as the client issued them, and
// neighbour-cache lookups and hits per sampling lane, plus train's losses
// (nil on the other workloads). On train it first waits for the
// pipeline to fill its ring and go idle, so batches produced ahead of the
// last step are counted in full.
func fixedCounts(t *testing.T, workload string, ops int) (map[string]int64, []float64) {
	t.Helper()
	st, err := buildStack(testScale, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := newWorkload(workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.build(st, 7); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if res := runLoop(w.callers(), time.Time{}, ops, w.op, w.between); res.firstErr != nil || res.failed > 0 {
		t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
	}
	if _, ok := w.(*trainLoad); ok {
		waitIdle(t, st)
	}
	if err := w.check(); err != nil && workload != "train" {
		t.Fatal(err) // a few train steps are too few to judge loss progress
	}
	m := st.cp.Client.Metrics()
	counts := make(map[string]int64)
	for name, mm := range m.Methods {
		counts["rpc."+name] = mm.Calls
	}
	for lane, h := range m.Hops {
		counts[lane+".lookups"] = h.Lookups
		counts[lane+".cache_hits"] = h.CacheHits
	}
	var losses []float64
	if tw, ok := w.(*trainLoad); ok {
		losses = tw.losses
	}
	return counts, losses
}

// waitIdle waits until the training pipeline holds every batch of its ring
// ready for the consumer (Depth + Workers + 1 = 7), i.e. production stopped.
func waitIdle(t *testing.T, st *stack) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st.reg.Snapshot().Gauges["core.pipeline.ready"] < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not go idle: %d batches ready", st.reg.Snapshot().Gauges["core.pipeline.ready"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCountsRepeatExactly guards the load generator against hidden
// nondeterminism: two runs of the same fixed op count must issue identical
// RPCs and see identical neighbour-cache traffic. On train the two pipeline
// workers share the LRU neighbour cache, so which of them admits a list
// first, and therefore the hit count, legitimately varies with scheduling
// (the pipeline guarantees sampled values, not cache traffic); there the
// hits are logged, and the losses must instead be bit-identical.
func TestCountsRepeatExactly(t *testing.T) {
	for _, c := range []struct {
		workload string
		ops      int
	}{{"sample", 20}, {"train", 6}} {
		t.Run(c.workload, func(t *testing.T) {
			a, la := fixedCounts(t, c.workload, c.ops)
			b, lb := fixedCounts(t, c.workload, c.ops)
			if a["rpc.SampleNeighbors"] == 0 || a["rpc.Attrs"] == 0 {
				t.Fatalf("workload issued no sampling or attribute RPCs: %v", a)
			}
			if c.workload == "train" {
				for k := range a {
					if strings.HasSuffix(k, ".cache_hits") {
						t.Logf("%s: %d vs %d", k, a[k], b[k])
						delete(a, k)
						delete(b, k)
					}
				}
				if !equalBits(la, lb) {
					t.Fatalf("losses differ between identical runs:\n%v\n%v", la, lb)
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("counts differ between identical runs:\n%v\n%v", a, b)
			}
		})
	}
}

// TestServeChurnEpochsRepeat covers serve_churn, whose RPC and cache counts
// legitimately vary with coalescing timing: the update stream each caller
// issues is fixed, so every shard ends at the same head epoch.
func TestServeChurnEpochsRepeat(t *testing.T) {
	heads := func() string {
		st, err := buildStack(testScale, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		w, err := newWorkload("serve_churn", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.build(st, 7); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if res := runLoop(w.callers(), time.Time{}, 30, w.op, w.between); res.firstErr != nil {
			t.Fatal(res.firstErr)
		}
		if err := w.check(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(st.servers[0].UpdateEpoch(), st.servers[1].UpdateEpoch())
	}
	if a, b := heads(), heads(); a != b {
		t.Fatalf("shard head epochs differ between identical runs: %s vs %s", a, b)
	}
}

// TestOutputChecksCatchCorruption makes sure the sample check fails on a
// wrong neighbour and a wrong attribute row.
func TestOutputChecksCatchCorruption(t *testing.T) {
	st, err := buildStack(testScale, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := &sampleLoad{}
	if err := w.build(st, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.op(0); err != nil {
		t.Fatal(err)
	}
	o := w.output()
	if err := verify(st.g, o); err != nil {
		t.Fatalf("clean op failed its check: %v", err)
	}
	row := o.rows[0]
	o.rows[0] = append([]float64{row[0] + 1}, row[1:]...)
	if verify(st.g, o) == nil {
		t.Fatal("a corrupted attribute row passed the check")
	}
	o.rows[0] = row
	o.ctxs[0].Layers[1][0] = o.ctxs[0].Layers[0][0] + 1<<20 // no such vertex
	if verify(st.g, o) == nil {
		t.Fatal("a neighbour that is not an out-neighbour passed the check")
	}
	w.kept = []sampleOut{o}
	if w.check() == nil {
		t.Fatal("check passed a kept output that fails verification")
	}
}

// TestSelfTimes checks self time on a parent with overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc.A", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "rpc.A", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "rpc.B", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 100 - 40 - 10, "rpc.A": 30 + 20, "rpc.B": 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestTracedRunReportsEveryLayer runs each workload briefly with tracing on
// and requires a correct result carrying every per-layer metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range []string{"train", "sample", "serve_churn"} {
		t.Run(w, func(t *testing.T) {
			var out strings.Builder
			res, err := tracedRun(config{workload: w, seconds: 2, trace: true, scale: testScale}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(perLayer) {
				t.Fatalf("bad result: %+v", res)
			}
			for _, pl := range perLayer {
				if m, ok := res.Metrics[pl.name]; !ok || m.Unit != pl.unit {
					t.Errorf("metric %s missing or wrong unit: %+v", pl.name, m)
				}
			}
			if res.Metrics["cluster.rpc_per_op"].Value == 0 {
				t.Errorf("traced run saw no RPCs")
			}
		})
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json in step with what
// the command prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if b.PerLayer[i].Name != pl.name || b.PerLayer[i].Unit != pl.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command prints %s (%s)", i, b.PerLayer[i], pl.name, pl.unit)
		}
	}
	e2e := window{}.endToEnd(0)
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end metric %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
}
