package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gcProbe is a reading of the garbage collector's cumulative activity.
type gcProbe struct {
	cycles  uint64
	pauseNs uint64
}

func readGC() gcProbe {
	var p gcProbe
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.cycles = s[0].Value.Uint64()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.pauseNs = m.PauseTotalNs
	return p
}

// diagnostics explain a noisy window: CPU stolen from this VM by the host,
// CPU this process used (client and shards alike), and garbage-collector
// activity. They are printed beside the metrics and none of it is gated.
type diagnostics struct {
	StealS     float64 `json:"host_steal_s"` // -1 where /proc/stat is unreadable
	CPUS       float64 `json:"process_cpu_s"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	WindowS    float64 `json:"window_s"`
	Attempted  int64   `json:"ops_attempted"`
	Failed     int64   `json:"ops_failed"`
	OpsSamples int     `json:"latency_samples"` // ops ending in quiet slices
	// Slices of the window, the quiet ones (steal at most the lower
	// quartile's), and the steal inside them.
	Slices      int     `json:"slices"`
	QuietSlices int     `json:"quiet_slices"`
	QuietStealS float64 `json:"quiet_steal_s"`
	// Per slice, in window order.
	SliceStealS  []float64 `json:"slice_steal_s"`
	SliceOpsPerS []float64 `json:"slice_ops_per_s"`
}

// newDiagnostics takes steal and process CPU from the window's first and
// last ticks, and GC activity from two probes around it.
func newDiagnostics(ticks []tick, a, b gcProbe) diagnostics {
	first, last := ticks[0], ticks[len(ticks)-1]
	d := diagnostics{
		StealS:    -1,
		CPUS:      (last.cpu - first.cpu).Seconds(),
		GCCycles:  b.cycles - a.cycles,
		GCPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if first.steal >= 0 && last.steal >= 0 {
		d.StealS = last.steal - first.steal
	}
	return d
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (USER_HZ ticks, 100 per second on Linux), or -1 where it is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}
