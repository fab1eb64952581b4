package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// This file provides the real-network transport: each graph server is
// exposed over net/rpc (gob encoding) on a TCP listener, and RPCTransport
// dials every server. The wire types are the same NeighborsRequest /
// AttrsRequest pairs used by LocalTransport, so the client is oblivious to
// which transport it runs on.

// GraphService is the RPC receiver wrapping a Server. net/rpc dispatches by
// reflected method name, so it spells out every RPC of the method table;
// each method name is the table's name for that RPC.
type GraphService struct {
	S *Server
}

// Neighbors is the RPC method for batched neighbor fetches.
func (g *GraphService) Neighbors(req NeighborsRequest, reply *NeighborsReply) error {
	return g.S.ServeNeighbors(req, reply)
}

// SampleNeighbors is the RPC method for server-side fixed-width neighbor
// draws (width IDs per slot instead of full hub adjacency lists).
func (g *GraphService) SampleNeighbors(req SampleRequest, reply *SampleReply) error {
	return g.S.ServeSampleNeighbors(req, reply)
}

// SampleEdges is the RPC method for uniform local edge draws (the
// distributed TRAVERSE).
func (g *GraphService) SampleEdges(req EdgesRequest, reply *EdgesReply) error {
	return g.S.ServeSampleEdges(req, reply)
}

// NegativePool is the RPC method for local negative-candidate counts.
func (g *GraphService) NegativePool(req NegPoolRequest, reply *NegPoolReply) error {
	return g.S.ServeNegativePool(req, reply)
}

// Stats is the RPC method for local size counters.
func (g *GraphService) Stats(req StatsRequest, reply *StatsReply) error {
	return g.S.ServeStats(req, reply)
}

// Attrs is the RPC method for batched attribute fetches.
func (g *GraphService) Attrs(req AttrsRequest, reply *AttrsReply) error {
	return g.S.ServeAttrs(req, reply)
}

// Bootstrap is the RPC method serving the partition assignment and schema,
// so workers start graph-free.
func (g *GraphService) Bootstrap(req BootstrapRequest, reply *BootstrapReply) error {
	return g.S.ServeBootstrap(req, reply)
}

// Update is the RPC method for incremental graph maintenance.
func (g *GraphService) Update(req UpdateRequest, reply *UpdateReply) error {
	return g.S.ServeUpdate(req, reply)
}

// Lease is the RPC method pinning a snapshot epoch.
func (g *GraphService) Lease(req LeaseRequest, reply *LeaseReply) error {
	return g.S.ServeLease(req, reply)
}

// Release is the RPC method dropping a snapshot lease.
func (g *GraphService) Release(req ReleaseRequest, reply *ReleaseReply) error {
	return g.S.ServeRelease(req, reply)
}

// Compact is the RPC method folding old overlays into a fresh base.
func (g *GraphService) Compact(req CompactRequest, reply *CompactReply) error {
	return g.S.ServeCompact(req, reply)
}

// RPCServer serves one graph server over TCP, tracking its accepted
// connections so Close severs in-flight clients (a real process kill does;
// the restart tests rely on the same semantics in-process).
type RPCServer struct {
	lis net.Listener
	srv *rpc.Server

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ServeRPC starts serving s on addr (e.g. "127.0.0.1:0") and returns the
// bound server; the accept loop runs until Close.
func ServeRPC(s *Server, addr string) (*RPCServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Graph", &GraphService{S: s}); err != nil {
		lis.Close()
		return nil, err
	}
	rs := &RPCServer{lis: lis, srv: srv, conns: make(map[net.Conn]struct{})}
	go rs.acceptLoop()
	return rs, nil
}

func (rs *RPCServer) acceptLoop() {
	for {
		conn, err := rs.lis.Accept()
		if err != nil {
			return // listener closed
		}
		rs.mu.Lock()
		if rs.closed {
			rs.mu.Unlock()
			conn.Close()
			return
		}
		rs.conns[conn] = struct{}{}
		rs.mu.Unlock()
		go func() {
			rs.srv.ServeConn(conn)
			rs.mu.Lock()
			delete(rs.conns, conn)
			rs.mu.Unlock()
		}()
	}
}

// Addr returns the bound address.
func (rs *RPCServer) Addr() string { return rs.lis.Addr().String() }

// Close stops the listener and severs every established connection, so
// clients observe the same io.EOF/ErrShutdown a crashed process would
// produce. Idempotent.
func (rs *RPCServer) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	conns := make([]net.Conn, 0, len(rs.conns))
	for c := range rs.conns {
		conns = append(conns, c)
	}
	rs.mu.Unlock()
	err := rs.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// DefaultDialTimeout bounds connection establishment when the caller does
// not configure one; the historical DialRPC blocked indefinitely on an
// unresponsive address.
const DefaultDialTimeout = 5 * time.Second

// DialConfig tunes DialRPCConfig.
type DialConfig struct {
	// Timeout bounds each TCP connect (default DefaultDialTimeout).
	Timeout time.Duration
	// Lazy defers connecting: unreachable shards do not fail construction,
	// their connections are established (with the same timeout) on first
	// call. Combined with a RetryTransport this lets a client start while a
	// shard is still booting.
	Lazy bool
}

// RPCTransport dials one RPC client per partition, lazily redialing after a
// transport-level failure so a restarted server is transparently
// re-adopted: the dead client is dropped on the failing call and the next
// call to that shard dials afresh.
type RPCTransport struct {
	facade
	addrs       []string
	dialTimeout time.Duration

	mu      sync.Mutex
	clients []*rpc.Client
	closed  bool
}

// DialRPC connects to the given per-partition addresses eagerly with the
// default timeout; any unreachable address fails construction (the
// historical contract). Use DialRPCConfig for lazy dialing.
func DialRPC(addrs []string) (*RPCTransport, error) {
	return DialRPCConfig(addrs, DialConfig{})
}

// DialRPCConfig connects to the given per-partition addresses under cfg.
func DialRPCConfig(addrs []string, cfg DialConfig) (*RPCTransport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultDialTimeout
	}
	t := &RPCTransport{
		addrs:       append([]string(nil), addrs...),
		dialTimeout: cfg.Timeout,
		clients:     make([]*rpc.Client, len(addrs)),
	}
	t.facade = facade{t}
	if cfg.Lazy {
		return t, nil
	}
	for i := range t.addrs {
		c, err := t.dial(i)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.clients[i] = c
	}
	return t, nil
}

// dial establishes one connection with the configured timeout.
func (t *RPCTransport) dial(part int) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", t.addrs[part], t.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", t.addrs[part], err)
	}
	return rpc.NewClient(conn), nil
}

// client returns part's live client, dialing (or redialing after a dropped
// connection) if needed.
func (t *RPCTransport) client(part int) (*rpc.Client, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("cluster: transport closed")
	}
	if c := t.clients[part]; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	c, err := t.dial(part)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("cluster: transport closed")
	}
	if cur := t.clients[part]; cur != nil {
		// A concurrent caller dialed first; use theirs.
		t.mu.Unlock()
		c.Close()
		return cur, nil
	}
	t.clients[part] = c
	t.mu.Unlock()
	return c, nil
}

// Kick implements Caller: it severs part's current connection
// unconditionally. Closing the rpc.Client fails its pending calls
// with ErrShutdown — unblocking any deadline-abandoned attempt still parked
// on the conn — and the next call to part dials afresh. Needed because a
// deadline expiry observed by RetryTransport never flows through this
// transport's own call path, so connFatal alone would leave a silently hung
// connection (network partition with no FIN/RST) in place forever.
func (t *RPCTransport) Kick(part int) {
	if part < 0 || part >= len(t.addrs) {
		return
	}
	t.mu.Lock()
	c := t.clients[part]
	t.clients[part] = nil
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// drop discards part's client if it is still the one that failed (pointer
// identity, so a newer redialed client is never discarded by a stale
// failure), closing the dead connection.
func (t *RPCTransport) drop(part int, c *rpc.Client) {
	t.mu.Lock()
	if t.clients[part] == c {
		t.clients[part] = nil
	}
	t.mu.Unlock()
	c.Close()
}

// connFatal reports whether a call error means the connection itself is
// dead and must be redialed.
func connFatal(err error) bool {
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Call implements Caller: it issues m over part's connection as net/rpc's
// "Graph.<name>", dropping the connection if the failure killed it.
func (t *RPCTransport) Call(part int, m Method, req, reply any) error {
	if part < 0 || part >= len(t.clients) {
		return fmt.Errorf("cluster: no client for partition %d", part)
	}
	c, err := t.client(part)
	if err != nil {
		return err
	}
	if err := c.Call(methods[m].wire, req, reply); err != nil {
		if connFatal(err) {
			t.drop(part, c)
		}
		return err
	}
	return nil
}

// Close implements Caller: every client is closed even when an earlier
// close errors (the errors are joined), and double-Close is safe.
func (t *RPCTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	clients := make([]*rpc.Client, len(t.clients))
	copy(clients, t.clients)
	for i := range t.clients {
		t.clients[i] = nil
	}
	t.mu.Unlock()
	var errs []error
	for i, c := range clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && !errors.Is(err, rpc.ErrShutdown) {
			errs = append(errs, fmt.Errorf("cluster: close %s: %w", t.addrs[i], err))
		}
	}
	return errors.Join(errs...)
}
