package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// span is one timed interval of the traced run: a layer call the
// benchmark made, an op, or an RPC seen by the recorder transport.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Op     int64  `json:"op"` // op the span belongs to; 0 = background work
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	prev int32 // span open on the goroutine before this one began
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every method is a no-op on a nil tracer, so the untraced program runs the
// same code without recording anything.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64]int32 // goroutine id -> innermost open span
	// Spans that start on a goroutine the benchmark opened no span on
	// (scatter, pipeline and coalescer goroutines) are parented to the span
	// open on goroutine adopt when there is one, else to background.
	adopt      uint64
	background int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[uint64]int32), spans: make([]span, 1, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (or, with parent < 0, under the span
// open on the calling goroutine) and makes it the goroutine's open span.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.parentLocked(gid)
	}
	if op == 0 && parent > 0 {
		op = t.spans[parent].Op
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: t.now(), prev: t.open[gid]})
	t.open[gid] = id
	return id
}

// end closes span id and restores the span that was open on the goroutine
// when it began.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if t.open[gid] == id {
		if p := t.spans[id].prev; p > 0 {
			t.open[gid] = p
		} else {
			delete(t.open, gid)
		}
	}
}

func (t *tracer) parentLocked(gid uint64) int32 {
	if id, ok := t.open[gid]; ok {
		return id
	}
	if id, ok := t.open[t.adopt]; ok && t.adopt != 0 {
		return id
	}
	return t.background
}

// setParents configures how spans from unannotated goroutines are parented.
func (t *tracer) setParents(adopt uint64, background int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.adopt, t.background = adopt, background
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans[1:] {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:"). It runs only in traced runs.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// rpcNames are the transport methods the recorder tracks, in report order.
var rpcNames = []string{
	"SampleNeighbors", "Neighbors", "SampleEdges", "NegativePool", "Attrs",
	"Lease", "Release", "Update", "Stats", "Bootstrap", "Compact",
}

// rpcStat is one method's counters as the recorder saw them.
type rpcStat struct {
	calls, errors, nanos atomic.Int64
}

// recorder is a cluster.Transport that times every call into the client's
// transport and records it as a span. It forwards the optional capabilities
// the client and the retry layer type-assert (RetryStats, Kicker), so the
// traced program takes the same paths as the untraced one.
type recorder struct {
	inner cluster.Transport
	tc    *tracer
	stats map[string]*rpcStat

	mu   sync.Mutex
	lats map[string][]time.Duration
}

func newRecorder(inner cluster.Transport, tc *tracer) *recorder {
	r := &recorder{inner: inner, tc: tc, stats: make(map[string]*rpcStat), lats: make(map[string][]time.Duration)}
	for _, n := range rpcNames {
		r.stats[n] = &rpcStat{}
	}
	return r
}

func (r *recorder) do(method string, call func() error) error {
	id := r.tc.begin("rpc."+method, -1, 0)
	start := time.Now()
	err := call()
	d := time.Since(start)
	r.tc.end(id)
	st := r.stats[method]
	st.calls.Add(1)
	st.nanos.Add(int64(d))
	if err != nil {
		st.errors.Add(1)
	}
	r.mu.Lock()
	r.lats[method] = append(r.lats[method], d)
	r.mu.Unlock()
	return err
}

// recorded is how many calls of method have been recorded.
func (r *recorder) recorded(method string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lats[method])
}

// latencies returns a copy of method's recorded latencies.
func (r *recorder) latencies(method string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.lats[method]...)
}

func (r *recorder) Neighbors(p int, req cluster.NeighborsRequest, rep *cluster.NeighborsReply) error {
	return r.do("Neighbors", func() error { return r.inner.Neighbors(p, req, rep) })
}

func (r *recorder) SampleNeighbors(p int, req cluster.SampleRequest, rep *cluster.SampleReply) error {
	return r.do("SampleNeighbors", func() error { return r.inner.SampleNeighbors(p, req, rep) })
}

func (r *recorder) SampleEdges(p int, req cluster.EdgesRequest, rep *cluster.EdgesReply) error {
	return r.do("SampleEdges", func() error { return r.inner.SampleEdges(p, req, rep) })
}

func (r *recorder) NegativePool(p int, req cluster.NegPoolRequest, rep *cluster.NegPoolReply) error {
	return r.do("NegativePool", func() error { return r.inner.NegativePool(p, req, rep) })
}

func (r *recorder) Stats(p int, req cluster.StatsRequest, rep *cluster.StatsReply) error {
	return r.do("Stats", func() error { return r.inner.Stats(p, req, rep) })
}

func (r *recorder) Attrs(p int, req cluster.AttrsRequest, rep *cluster.AttrsReply) error {
	return r.do("Attrs", func() error { return r.inner.Attrs(p, req, rep) })
}

func (r *recorder) Bootstrap(p int, req cluster.BootstrapRequest, rep *cluster.BootstrapReply) error {
	return r.do("Bootstrap", func() error { return r.inner.Bootstrap(p, req, rep) })
}

func (r *recorder) Update(p int, req cluster.UpdateRequest, rep *cluster.UpdateReply) error {
	return r.do("Update", func() error { return r.inner.Update(p, req, rep) })
}

func (r *recorder) Lease(p int, req cluster.LeaseRequest, rep *cluster.LeaseReply) error {
	return r.do("Lease", func() error { return r.inner.Lease(p, req, rep) })
}

func (r *recorder) Release(p int, req cluster.ReleaseRequest, rep *cluster.ReleaseReply) error {
	return r.do("Release", func() error { return r.inner.Release(p, req, rep) })
}

func (r *recorder) Compact(p int, req cluster.CompactRequest, rep *cluster.CompactReply) error {
	return r.do("Compact", func() error { return r.inner.Compact(p, req, rep) })
}

func (r *recorder) Close() error { return r.inner.Close() }

// Retries forwards cluster.RetryStats.
func (r *recorder) Retries() int64 {
	if rs, ok := r.inner.(cluster.RetryStats); ok {
		return rs.Retries()
	}
	return 0
}

// FastFails forwards cluster.RetryStats.
func (r *recorder) FastFails() int64 {
	if rs, ok := r.inner.(cluster.RetryStats); ok {
		return rs.FastFails()
	}
	return 0
}

// Kick forwards cluster.Kicker.
func (r *recorder) Kick(part int) {
	if k, ok := r.inner.(cluster.Kicker); ok {
		k.Kick(part)
	}
}
