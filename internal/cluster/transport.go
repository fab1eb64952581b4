package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Transport delivers requests to graph servers. The client treats partition
// "home" (its own worker) as free and any other partition as a remote call;
// implementations decide what a remote call costs.
type Transport interface {
	// Neighbors is retired and always fails: no server serves full-list
	// fetches, and every hop draws through SampleNeighbors. It stays only
	// while perfbench's transport recorder forwards it.
	Neighbors(part int, req NeighborsRequest, reply *NeighborsReply) error
	// SampleNeighbors draws fixed-width neighbor samples on the server
	// owning part, returning width IDs per requested vertex instead of full
	// adjacency lists.
	SampleNeighbors(part int, req SampleRequest, reply *SampleReply) error
	// SampleEdges draws uniform local edges from the server owning part.
	SampleEdges(part int, req EdgesRequest, reply *EdgesReply) error
	// NegativePool fetches local negative-candidate counts from part.
	NegativePool(part int, req NegPoolRequest, reply *NegPoolReply) error
	// Stats fetches the local size counters of part.
	Stats(part int, req StatsRequest, reply *StatsReply) error
	// Attrs fetches attribute vectors from the server owning part.
	Attrs(part int, req AttrsRequest, reply *AttrsReply) error
	// Bootstrap fetches the cluster bootstrap information (partition
	// assignment, schema) from the server owning part.
	Bootstrap(part int, req BootstrapRequest, reply *BootstrapReply) error
	// Update applies an atomic mutation batch on the server owning part.
	Update(part int, req UpdateRequest, reply *UpdateReply) error
	// Lease pins a snapshot epoch on the server owning part.
	Lease(part int, req LeaseRequest, reply *LeaseReply) error
	// Release drops a snapshot lease on the server owning part.
	Release(part int, req ReleaseRequest, reply *ReleaseReply) error
	// Compact folds old overlays into a fresh base on the server owning
	// part (operator/tooling surface; servers also self-trigger on an
	// overlay-size threshold).
	Compact(part int, req CompactRequest, reply *CompactReply) error
	// Close releases transport resources.
	Close() error
}

// Method names one graph-service RPC. It indexes the method table, the
// client's per-method counters and the server's handler histograms.
type Method int

// The graph-service RPCs, in Transport order.
const (
	MSampleNeighbors Method = iota
	MSampleEdges
	MNegativePool
	MStats
	MAttrs
	MBootstrap
	MUpdate
	MLease
	MRelease
	MCompact
	numMethods
)

// String returns the method's name, as used in metric names.
func (m Method) String() string { return methods[m].name }

// methodSpec is one row of the method table: what a transport layer needs
// to know about an RPC without spelling out its request and reply types.
type methodSpec struct {
	name string // the name in metric names and error text
	// serve runs the RPC's handler on s.
	serve func(s *Server, req, reply any) error
	// newReply returns a fresh reply pointer (one per retry attempt), and
	// copyReply sets *dst = *src.
	newReply  func() any
	copyReply func(dst, src any)
	// stamp is set for the RPCs whose request carries an idempotency token
	// (Update, Lease, Release): it returns req with a token from mint when
	// req carries none.
	stamp func(req any, mint func() uint64) any
	// putReq and putReply append the wire form (codec.go) of a request
	// value or a reply pointer to b; getReq and getReply decode one from a
	// frame body, the reply as a fresh pointer.
	putReq, putReply func(b []byte, v any) []byte
	getReq, getReply func(body []byte) (any, error)
}

// methods is the method table, the one list of the RPCs that transport
// layers work from. Each row names the RPC, its handler, the wire layouts
// of its request and reply, and where its request keeps an idempotency
// token, if it has one.
var methods = [numMethods]methodSpec{
	MSampleNeighbors: defineMethod("SampleNeighbors", (*Server).ServeSampleNeighbors, sampleRequestWire, sampleReplyWire, nil),
	MSampleEdges:     defineMethod("SampleEdges", (*Server).ServeSampleEdges, edgesRequestWire, edgesReplyWire, nil),
	MNegativePool:    defineMethod("NegativePool", (*Server).ServeNegativePool, negPoolRequestWire, negPoolReplyWire, nil),
	MStats:           defineMethod("Stats", (*Server).ServeStats, noFields[StatsRequest], statsReplyWire, nil),
	MAttrs:           defineMethod("Attrs", (*Server).ServeAttrs, attrsRequestWire, attrsReplyWire, nil),
	MBootstrap:       defineMethod("Bootstrap", (*Server).ServeBootstrap, noFields[BootstrapRequest], bootstrapReplyWire, nil),
	MUpdate: defineMethod("Update", (*Server).ServeUpdate, updateRequestWire, updateReplyWire,
		func(r *UpdateRequest) *uint64 { return &r.Token }),
	MLease: defineMethod("Lease", (*Server).ServeLease, leaseRequestWire, leaseReplyWire,
		func(r *LeaseRequest) *uint64 { return &r.Token }),
	MRelease: defineMethod("Release", (*Server).ServeRelease, releaseRequestWire, noFields[ReleaseReply],
		func(r *ReleaseRequest) *uint64 { return &r.Token }),
	MCompact: defineMethod("Compact", (*Server).ServeCompact, noFields[CompactRequest], compactReplyWire, nil),
}

// defineMethod builds the table row of the RPC handled by serve, whose
// request and reply travel under the layouts reqWire and repWire; token, if
// not nil, locates the request's idempotency token. It is the only place the
// table's untyped requests and replies are converted back to their types.
func defineMethod[Req, Rep any](name string, serve func(*Server, Req, *Rep) error,
	reqWire func(*wire, *Req), repWire func(*wire, *Rep), token func(*Req) *uint64) methodSpec {
	spec := methodSpec{
		name:      name,
		serve:     func(s *Server, req, reply any) error { return serve(s, req.(Req), reply.(*Rep)) },
		newReply:  func() any { return new(Rep) },
		copyReply: func(dst, src any) { *dst.(*Rep) = *src.(*Rep) },
		putReq: func(b []byte, req any) []byte {
			r := req.(Req)
			return encode(b, &r, reqWire)
		},
		putReply: func(b []byte, reply any) []byte { return encode(b, reply.(*Rep), repWire) },
		getReq:   func(body []byte) (any, error) { return decode(body, reqWire) },
		getReply: func(body []byte) (any, error) {
			r, err := decode(body, repWire)
			return &r, err
		},
	}
	if token != nil {
		spec.stamp = func(req any, mint func() uint64) any {
			r := req.(Req)
			if tok := token(&r); *tok == 0 {
				*tok = mint()
				return r
			}
			return req
		}
	}
	return spec
}

// Caller is a transport layer's single entry point. Call issues RPC m to
// the server owning part; req is m's request value and reply a pointer to
// m's reply type. RPCTransport and FaultTransport's latency spikes honour
// ctx: when it ends first, the call fails with an error wrapping
// ErrUnreachable. In-process handlers run to completion. Wrapping layers
// (Latency, Fault, Retry) take an inner Caller and pass Close through to it.
type Caller interface {
	Call(ctx context.Context, part int, m Method, req, reply any) error
	Close() error
}

// facade implements Transport's typed methods on a Caller, each as one
// Call without a deadline. Every layer embeds a facade over itself, so every
// layer is also a Transport.
type facade struct{ c Caller }

// NeighborsRequest and NeighborsReply are the retired Neighbors method's
// argument types. They carry nothing.
type (
	NeighborsRequest struct{}
	NeighborsReply   struct{}
)

func (facade) Neighbors(int, NeighborsRequest, *NeighborsReply) error {
	return errors.New("cluster: the Neighbors RPC is retired; draw through SampleNeighbors")
}

func (f facade) SampleNeighbors(part int, req SampleRequest, reply *SampleReply) error {
	return f.c.Call(context.Background(), part, MSampleNeighbors, req, reply)
}

func (f facade) SampleEdges(part int, req EdgesRequest, reply *EdgesReply) error {
	return f.c.Call(context.Background(), part, MSampleEdges, req, reply)
}

func (f facade) NegativePool(part int, req NegPoolRequest, reply *NegPoolReply) error {
	return f.c.Call(context.Background(), part, MNegativePool, req, reply)
}

func (f facade) Stats(part int, req StatsRequest, reply *StatsReply) error {
	return f.c.Call(context.Background(), part, MStats, req, reply)
}

func (f facade) Attrs(part int, req AttrsRequest, reply *AttrsReply) error {
	return f.c.Call(context.Background(), part, MAttrs, req, reply)
}

func (f facade) Bootstrap(part int, req BootstrapRequest, reply *BootstrapReply) error {
	return f.c.Call(context.Background(), part, MBootstrap, req, reply)
}

func (f facade) Update(part int, req UpdateRequest, reply *UpdateReply) error {
	return f.c.Call(context.Background(), part, MUpdate, req, reply)
}

func (f facade) Lease(part int, req LeaseRequest, reply *LeaseReply) error {
	return f.c.Call(context.Background(), part, MLease, req, reply)
}

func (f facade) Release(part int, req ReleaseRequest, reply *ReleaseReply) error {
	return f.c.Call(context.Background(), part, MRelease, req, reply)
}

func (f facade) Compact(part int, req CompactRequest, reply *CompactReply) error {
	return f.c.Call(context.Background(), part, MCompact, req, reply)
}

// LocalTransport serves requests by direct method calls on in-process
// servers, optionally sleeping RemoteLatency per call to any partition other
// than Home. It also counts calls so benchmarks can report deterministic
// remote-trip numbers independent of wall-clock noise.
type LocalTransport struct {
	facade
	Servers []*Server
	// Home is the caller's own partition; calls to it are free.
	Home int
	// RemoteLatency is added to every call to a non-Home partition.
	RemoteLatency time.Duration

	localCalls  int64
	remoteCalls int64
}

// NewLocalTransport wraps in-process servers.
func NewLocalTransport(servers []*Server, home int, remoteLatency time.Duration) *LocalTransport {
	t := &LocalTransport{Servers: servers, Home: home, RemoteLatency: remoteLatency}
	t.facade = facade{t}
	return t
}

// Call implements Caller: it pays for the call, then runs m's handler on
// part's server. The handler runs to completion whatever ctx says.
func (t *LocalTransport) Call(_ context.Context, part int, m Method, req, reply any) error {
	if part < 0 || part >= len(t.Servers) {
		return fmt.Errorf("cluster: no server for partition %d", part)
	}
	if part == t.Home {
		atomic.AddInt64(&t.localCalls, 1)
	} else {
		atomic.AddInt64(&t.remoteCalls, 1)
		if t.RemoteLatency > 0 {
			time.Sleep(t.RemoteLatency)
		}
	}
	return methods[m].serve(t.Servers[part], req, reply)
}

// Close implements Caller.
func (t *LocalTransport) Close() error { return nil }

// Calls reports cumulative local and remote call counts.
func (t *LocalTransport) Calls() (local, remote int64) {
	return atomic.LoadInt64(&t.localCalls), atomic.LoadInt64(&t.remoteCalls)
}

// ResetCalls zeroes the call counters.
func (t *LocalTransport) ResetCalls() {
	atomic.StoreInt64(&t.localCalls, 0)
	atomic.StoreInt64(&t.remoteCalls, 0)
}

// LatencyTransport injects a fixed delay before every call on an inner
// layer, simulating a network round trip to every partition (including the
// caller's own). Benchmarks use it to measure how much graph-service
// latency a prefetching pipeline hides behind compute.
type LatencyTransport struct {
	facade
	Caller // the inner layer
	Delay  time.Duration

	calls int64
}

// NewLatencyTransport wraps inner with a per-call delay.
func NewLatencyTransport(inner Caller, d time.Duration) *LatencyTransport {
	t := &LatencyTransport{Caller: inner, Delay: d}
	t.facade = facade{t}
	return t
}

// Call implements Caller: it sleeps Delay, then calls the inner layer.
func (t *LatencyTransport) Call(ctx context.Context, part int, m Method, req, reply any) error {
	atomic.AddInt64(&t.calls, 1)
	if t.Delay > 0 {
		time.Sleep(t.Delay)
	}
	return t.Caller.Call(ctx, part, m, req, reply)
}

// Calls reports how many calls paid the delay.
func (t *LatencyTransport) Calls() int64 { return atomic.LoadInt64(&t.calls) }
