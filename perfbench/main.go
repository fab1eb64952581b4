// Command perfbench is the repository's benchmark. It runs one workload —
// train, sample or serve_churn — against two graph shards served over
// loopback TCP in this process, checks the outputs, and prints one JSON
// object as its last line of output:
//
//	perfbench --workload sample --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, and a report of per-layer
// numbers, self times, budgets and tracing overhead precedes it. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// benchScale is the Taobao-sim scale every workload runs at: 8.8k
// vertices, more than the serving tier's 4096-entry embedding cache.
const benchScale = 2

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "train, sample or serve_churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated graph and the op stream")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the timed window, seconds (halved per window when traced)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory to write the traced run's spans to (empty: do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := newWorkload(cfg.workload, nil); err != nil || cfg.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need --workload train|sample|serve_churn, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.scale = benchScale

	var res result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg, stdout)
	} else {
		res, err = plainRun(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// instance is one set-up stack with its workload built on it.
type instance struct {
	st    *stack
	w     workload
	setup time.Duration
}

func (s *instance) close() {
	s.w.close()
	s.st.Close()
}

func setUp(cfg config, tc *tracer) (*instance, error) {
	runtime.GC() // leave the previous stack's garbage out of this set-up
	start := time.Now()
	st, err := buildStack(cfg.scale, cfg.seed, tc)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, tc)
	if err != nil {
		st.Close()
		return nil, err
	}
	t := time.Now()
	if err := w.build(st, cfg.seed); err != nil {
		w.close()
		st.Close()
		return nil, err
	}
	st.phases.warmup = time.Since(t)
	return &instance{st: st, w: w, setup: time.Since(start)}, nil
}

// window is what one timed window measured.
type window struct {
	loop   loopResult
	quiet  quietStats
	diag   diagnostics
	heapMB float64 // set once the output checks have run
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, which keeps one set-up slowed by host steal from moving it.
const setupRuns = 5

// sliceLen is the granularity at which host steal is read during a window.
const sliceLen = 100 * time.Millisecond

var opSeq atomic.Int64

// measure runs s's workload closed-loop for secs seconds.
func measure(s *instance, secs float64, tc *tracer) window {
	op := s.w.op
	if tc != nil {
		// On sample, RPCs from the client's scatter goroutines belong to the
		// layer call the single caller has open.
		adopt := isSample(s.w)
		op = func(c int) error {
			id := tc.begin("op", 0, opSeq.Add(1))
			if adopt {
				tc.setParents(goid(), 0)
			}
			err := s.w.op(c)
			tc.end(id)
			return err
		}
	}
	runtime.GC()
	g0 := readGC()
	stop := make(chan struct{})
	ticked := make(chan []tick, 1)
	go func() { ticked <- sampleTicks(sliceLen, stop) }()
	until := time.Now().Add(time.Duration(secs * float64(time.Second)))
	loop := runLoop(s.w.callers(), until, 0, op, s.w.between)
	close(stop)
	ticks := <-ticked
	q := loop.quietStats(ticks)
	d := newDiagnostics(ticks, g0, readGC())
	d.WindowS = loop.stop.Sub(loop.start).Seconds()
	d.Attempted, d.Failed, d.OpsSamples = loop.attempted, loop.failed, len(q.lats)
	d.QuietSlices, d.Slices, d.QuietStealS = q.quiet, q.of, q.stealS
	d.SliceStealS, d.SliceOpsPerS = q.sliceSteal, q.sliceRate
	return window{loop: loop, quiet: q, diag: d}
}

func isSample(w workload) bool { _, ok := w.(*sampleLoad); return ok }

// liveHeapMB forces a collection and reads the heap it left live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}
	return float64(s[0].Value.Uint64()) / 1e6
}

// endToEnd derives the user-visible metrics of a window from its quiet
// slices.
func (w window) endToEnd(setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"ops_per_s":     {w.quiet.opsPerS, "1/s"},
		"op_p50_ms":     {ms(quantile(w.quiet.lats, 0.50)), "ms"},
		"op_p90_ms":     {ms(quantile(w.quiet.lats, 0.90)), "ms"},
		"cpu_ms_per_op": {ms(w.quiet.cpuPerOp), "ms"},
		"heap_mb":       {w.heapMB, "MB"},
	}
}

// plainRun sets up setupRuns times (reporting the median), measures the
// last stack for cfg.seconds and checks its outputs.
func plainRun(cfg config, out io.Writer) (result, error) {
	var setups []float64
	var prints [][]float64
	var s *instance
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setUp(cfg, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setup.Seconds())
		prints = append(prints, s.w.fingerprint())
	}
	defer s.close()
	win := measure(s, float64(cfg.seconds), nil)
	checkErr := checkAll(s, prints)
	win.heapMB = liveHeapMB() // after check released the outputs it kept
	diag, _ := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "setups_s": setups, "diagnostics": win.diag})
	fmt.Fprintln(out, string(diag))
	if checkErr != nil {
		fmt.Fprintln(out, "check failed:", checkErr)
	}
	if win.loop.firstErr != nil {
		fmt.Fprintln(out, "first op error:", win.loop.firstErr)
	}
	return result{
		Correct:   checkErr == nil,
		Attempted: win.loop.attempted,
		Failed:    win.loop.failed,
		Metrics:   win.endToEnd(median(setups)),
	}, nil
}

// checkAll runs the workload's output checks, and requires the warm-up
// fingerprint of every set-up to equal the first bit for bit.
func checkAll(s *instance, prints [][]float64) error {
	for i := 1; i < len(prints); i++ {
		if !equalBits(prints[i], prints[0]) {
			return fmt.Errorf("set-up %d warm-up outputs differ from set-up 1's under the same seed: %v vs %v", i+1, prints[i], prints[0])
		}
	}
	return s.w.check()
}

// tracedRun measures one untraced and one traced stack for half of
// cfg.seconds each, prints the report, and returns the per-layer metrics.
func tracedRun(cfg config, out io.Writer) (result, error) {
	half := float64(cfg.seconds) / 2
	base, err := setUp(cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := measure(base, half, nil)
	baseErr := checkAll(base, nil)
	plain.heapMB = liveHeapMB()
	plainE2E := plain.endToEnd(base.setup.Seconds())
	base.close()

	tc := newTracer()
	s, err := setUp(cfg, tc)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	win, traced := measureTraced(s, tc, half)
	checkErr := checkAll(s, [][]float64{base.w.fingerprint(), s.w.fingerprint()})
	if checkErr == nil {
		checkErr = baseErr
	}
	m, rep := traced.metrics(win, plainE2E, base.st.phases)
	diag, _ := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "untraced": plain.diag, "traced": win.diag})
	fmt.Fprintln(out, string(diag))
	fmt.Fprint(out, rep)
	if checkErr != nil {
		fmt.Fprintln(out, "check failed:", checkErr)
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tc.write(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(out, "spans:", path)
	}
	return result{
		Correct:   checkErr == nil,
		Attempted: plain.loop.attempted + win.loop.attempted,
		Failed:    plain.loop.failed + win.loop.failed,
		Metrics:   m,
	}, nil
}

// finite maps NaN and infinities (a ratio over nothing) to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
