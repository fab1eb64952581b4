package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// opRecord is one completed op's interval.
type opRecord struct{ start, end time.Time }

// loopResult is what a closed loop measured.
type loopResult struct {
	ops         []opRecord // successful ops, every caller
	attempted   int64
	failed      int64
	firstErr    error
	start, stop time.Time
}

// runLoop drives callers closed loops: each caller issues its next op only
// after the previous one returned. A caller stops once until is past or it
// has issued perCaller ops (when perCaller > 0). between runs after every
// op, outside the op's timing; a failure there counts against the op.
func runLoop(callers int, until time.Time, perCaller int, op func(c int) error, between func(c, i int) error) loopResult {
	res := loopResult{start: time.Now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ops []opRecord
			var attempted, failed int64
			var firstErr error
			for i := 1; ; i++ {
				if perCaller > 0 && i > perCaller || perCaller == 0 && !time.Now().Before(until) {
					break
				}
				attempted++
				t0 := time.Now()
				err := op(c)
				t1 := time.Now()
				if err == nil && between != nil {
					err = between(c, i)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				ops = append(ops, opRecord{t0, t1})
			}
			mu.Lock()
			res.ops = append(res.ops, ops...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.stop = time.Now()
	return res
}

// tick is a reading of host steal and process CPU at a slice boundary.
type tick struct {
	at    time.Time
	steal float64
	cpu   time.Duration
}

// sampleTicks reads the counters now, every slice, and once more when stop
// closes, and returns the readings.
func sampleTicks(slice time.Duration, stop <-chan struct{}) []tick {
	read := func() tick { return tick{at: time.Now(), steal: stealSeconds(), cpu: processCPU()} }
	ticks := []tick{read()}
	t := time.NewTicker(slice)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ticks = append(ticks, read())
		case <-stop:
			return append(ticks, read())
		}
	}
}

// quietStats are the window's metrics taken over its quiet slices: the
// slices (between consecutive ticks) whose host steal is at most that of
// the slice at the lower quartile. On a shared VM steal comes in bursts
// and regimes that move a slice's throughput by up to half; the quietest
// quarter measures the program rather than its neighbours. An op's
// latency belongs to the slice its interval ends in, however long the op,
// and the op counts towards a slice's throughput by the share of its
// interval inside that slice.
type quietStats struct {
	opsPerS   float64         // median over quiet slices of ops per second
	lats      []time.Duration // ascending latencies of ops ending in quiet slices
	cpuPerOp  time.Duration   // process CPU per op over the quiet slices
	quiet, of int             // quiet slices, all slices
	stealS    float64         // host steal inside the quiet slices

	sliceSteal, sliceRate []float64 // every slice's steal (s) and ops per second
}

func (r loopResult) quietStats(ticks []tick) quietStats {
	n := len(ticks) - 1
	if n < 1 {
		return quietStats{}
	}
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = ticks[i+1].steal - ticks[i].steal
	}
	limit := lowerQuantile(steal, quietShare)
	quiet := make([]bool, n)
	slice := func(t time.Time) int { // the slice t falls in, or -1
		i := sort.Search(n, func(i int) bool { return ticks[i+1].at.After(t) })
		if i >= n || t.Before(ticks[0].at) {
			return -1
		}
		return i
	}
	ops := make([]float64, n)
	var st quietStats
	st.of = n
	for i := range quiet {
		quiet[i] = steal[i] <= limit
	}
	for _, o := range r.ops {
		d := float64(o.end.Sub(o.start))
		for i := max(slice(o.start), 0); i < n && ticks[i].at.Before(o.end); i++ {
			a, b := later(o.start, ticks[i].at), earlier(o.end, ticks[i+1].at)
			if b.After(a) && d > 0 {
				ops[i] += float64(b.Sub(a)) / d
			}
		}
		if i := slice(o.end); i >= 0 && quiet[i] {
			st.lats = append(st.lats, o.end.Sub(o.start))
		}
	}
	sort.Slice(st.lats, func(i, j int) bool { return st.lats[i] < st.lats[j] })
	var rates []float64
	var cpu time.Duration
	var done float64
	st.sliceSteal = steal
	for i := 0; i < n; i++ {
		rate := ops[i] / ticks[i+1].at.Sub(ticks[i].at).Seconds()
		st.sliceRate = append(st.sliceRate, rate)
		if !quiet[i] {
			continue
		}
		st.quiet++
		st.stealS += steal[i]
		rates = append(rates, rate)
		cpu += ticks[i+1].cpu - ticks[i].cpu
		done += ops[i]
	}
	st.opsPerS = median(rates)
	if done > 0 {
		st.cpuPerOp = time.Duration(float64(cpu) / done)
	}
	return st
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// quietShare is the share of a window's slices, the least stolen, that
// its metrics are taken from (more when slices tie).
const quietShare = 0.25

// lowerQuantile is the element of xs at rank floor(q*(len-1)) in ascending
// order.
func lowerQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// quantile is the q-quantile of ascending xs by linear interpolation.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i] + time.Duration(f*float64(xs[i+1]-xs[i]))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
