package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"reflect"
	"slices"
	"sync"
	"time"
)

// This file provides the real-network transport: each graph server is
// exposed on a TCP listener, and RPCTransport dials every server. Both ends
// speak one frame format over the codec in codec.go: a uint32 length, a
// header (sequence number, method index, error text), then the request or
// reply under its method's layout. The server is a read loop over the method
// table; the client is net/rpc's rpc.Client over a ClientCodec, which keeps
// its sequence numbers, pending-call bookkeeping and ErrShutdown semantics.
// The wire types are the same NeighborsRequest / AttrsRequest pairs used by
// LocalTransport, so the client is oblivious to which transport it runs on.

// maxFrame caps a frame's length. A longer frame closes the connection; a
// reply that would exceed it is answered with an error instead.
const maxFrame = 1 << 28

// keepBuf is the largest read or write buffer a connection keeps between
// frames; bigger frames get a buffer of their own.
const keepBuf = 64 << 10

// errMalformed marks a frame that breaks the format; the connection it came
// on is closed.
var errMalformed = errors.New("cluster: malformed frame")

// frameHeader opens every frame, after its length.
type frameHeader struct {
	seq    uint64
	method uint8
	err    string
}

func headerWire(w *wire, h *frameHeader) {
	num(w, &h.seq)
	w.u8(&h.method)
	w.str(&h.err)
}

// putFrame assembles a frame in b[:0]: the length, h, then v under put
// (no body when v is nil).
func putFrame(b []byte, h frameHeader, put func([]byte, any) []byte, v any) ([]byte, error) {
	b = encode(append(b[:0], 0, 0, 0, 0), &h, headerWire)
	if v != nil {
		b = put(b, v)
	}
	if len(b)-4 > maxFrame {
		return b, fmt.Errorf("cluster: %v frame of %d bytes exceeds the %d-byte limit", Method(h.method), len(b)-4, maxFrame)
	}
	le.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// readFrame reads one frame from r into buf, or into a new buffer when buf
// is too small. A frame of more than a MiB grows as its bytes arrive, so a
// length that lies costs no more memory than the bytes actually sent.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var n4 [4]byte
	if _, err := io.ReadFull(r, n4[:]); err != nil {
		return nil, err
	}
	n := int(le.Uint32(n4[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", errMalformed, n, maxFrame)
	}
	if n <= max(cap(buf), 1<<20) {
		if n > cap(buf) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf = nil
	for len(buf) < n {
		chunk := min(n-len(buf), max(len(buf), 1<<20))
		buf = slices.Grow(buf, chunk)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+chunk]
	}
	return buf, nil
}

// keep returns b if a connection may hold on to it until the next frame.
func keep(b []byte) []byte {
	if cap(b) > keepBuf {
		return nil
	}
	return b
}

// parseFrame splits a frame into its header and body.
func parseFrame(frame []byte) (frameHeader, []byte, error) {
	var h frameHeader
	w := wire{decoding: true, in: frame}
	headerWire(&w, &h)
	if w.err == nil && h.method >= uint8(numMethods) {
		w.err = fmt.Errorf("method index %d", h.method)
	}
	if w.err != nil {
		return h, nil, fmt.Errorf("%w: header: %v", errMalformed, w.err)
	}
	return h, w.in, nil
}

// RPCServer serves one graph server over TCP, tracking its accepted
// connections so Close severs in-flight clients (a real process kill does;
// the restart tests rely on the same semantics in-process).
type RPCServer struct {
	lis net.Listener
	s   *Server

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
	rs := &RPCServer{lis: lis, s: s, conns: make(map[net.Conn]struct{})}
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
			rs.serveConn(conn)
			rs.mu.Lock()
			delete(rs.conns, conn)
			rs.mu.Unlock()
		}()
	}
}

// serveConn answers the requests on one connection until it fails or a
// frame is malformed. Each request runs in its own goroutine, so a slow call
// does not hold up the calls pipelined behind it; replies are written whole
// under one mutex, in completion order. A malformed request body fails only
// its own call.
func (rs *RPCServer) serveConn(conn net.Conn) {
	var (
		wmu      sync.Mutex
		wbuf     []byte
		handlers sync.WaitGroup
	)
	answer := func(h frameHeader, reply any, err error) {
		spec := &methods[h.method]
		h.err = ""
		wmu.Lock()
		defer wmu.Unlock()
		if err == nil {
			wbuf, err = putFrame(wbuf, h, spec.putReply, reply)
		}
		if err != nil {
			h.err = err.Error()
			wbuf, _ = putFrame(wbuf, h, nil, nil)
		}
		conn.Write(wbuf) // a failed write surfaces as the read loop's error
		wbuf = keep(wbuf)
	}
	r := bufio.NewReader(conn)
	var rbuf []byte
	for {
		frame, err := readFrame(r, rbuf)
		if err != nil {
			break
		}
		rbuf = keep(frame)
		h, body, err := parseFrame(frame)
		if err != nil {
			break
		}
		spec := &methods[h.method]
		req, err := spec.getReq(body)
		if err != nil {
			answer(h, nil, fmt.Errorf("cluster: malformed %s request: %w", spec.name, err))
			continue
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			reply := spec.newReply()
			answer(h, reply, spec.serve(rs.s, req, reply))
		}()
	}
	handlers.Wait()
	conn.Close()
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

// dialTimeout bounds each TCP connect, so an unresponsive address fails
// a dial instead of blocking it.
const dialTimeout = 5 * time.Second

// RPCTransport dials one RPC client per partition, lazily redialing after a
// transport-level failure so a restarted server is transparently
// re-adopted: the dead client is dropped on the failing call and the next
// call to that shard dials afresh.
type RPCTransport struct {
	facade
	addrs []string

	mu      sync.Mutex
	clients []*rpc.Client
	closed  bool
}

// DialRPC connects to the given per-partition addresses; any unreachable
// address fails construction.
func DialRPC(addrs []string) (*RPCTransport, error) {
	t := &RPCTransport{
		addrs:   append([]string(nil), addrs...),
		clients: make([]*rpc.Client, len(addrs)),
	}
	t.facade = facade{t}
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

// dial establishes one connection to part's server.
func (t *RPCTransport) dial(part int) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", t.addrs[part], dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", t.addrs[part], err)
	}
	return rpc.NewClientWithCodec(&clientCodec{conn: conn, r: bufio.NewReader(conn)}), nil
}

// clientCodec is net/rpc's client side of the frame format. rpc.Client
// serializes WriteRequest calls and reads replies from one goroutine, so
// the codec needs no lock of its own. Each reply body is decoded together
// with its header: a malformed body then fails only its own call (as a
// ServerError), while a malformed frame closes the connection and fails
// every pending call with an error wrapping rpc.ErrShutdown.
type clientCodec struct {
	conn       net.Conn
	r          *bufio.Reader
	wbuf, rbuf []byte
	// m and reply are the method and the decoded body of the last frame
	// read; reply is nil for an error frame.
	m     Method
	reply any
}

// methodByName maps a table row's name, the ServiceMethod RPCTransport
// passes to rpc.Client, back to its Method.
var methodByName = func() map[string]Method {
	byName := make(map[string]Method, numMethods)
	for m := range numMethods {
		byName[methods[m].name] = m
	}
	return byName
}()

func (c *clientCodec) WriteRequest(r *rpc.Request, req any) error {
	m, ok := methodByName[r.ServiceMethod]
	if !ok {
		return fmt.Errorf("cluster: no method %q", r.ServiceMethod)
	}
	frame, err := putFrame(c.wbuf, frameHeader{seq: r.Seq, method: uint8(m)}, methods[m].putReq, req)
	c.wbuf = keep(frame)
	if err != nil {
		return err
	}
	_, err = c.conn.Write(frame)
	return err
}

func (c *clientCodec) ReadResponseHeader(r *rpc.Response) error {
	c.reply = nil
	frame, err := readFrame(c.r, c.rbuf)
	if errors.Is(err, errMalformed) {
		return c.fail(err)
	}
	if err != nil {
		return err // a dead connection, which rpc.Client reports as it always has
	}
	c.rbuf = keep(frame)
	h, body, err := parseFrame(frame)
	if err != nil {
		return c.fail(err)
	}
	c.m = Method(h.method)
	r.Seq, r.ServiceMethod, r.Error = h.seq, methods[c.m].name, h.err
	if h.err == "" {
		reply, err := methods[c.m].getReply(body)
		if err != nil {
			r.Error = fmt.Sprintf("cluster: malformed %v reply: %v", c.m, err)
		} else {
			c.reply = reply
		}
	}
	return nil
}

func (c *clientCodec) ReadResponseBody(reply any) error {
	if reply == nil || c.reply == nil {
		return nil
	}
	if reflect.TypeOf(reply) != reflect.TypeOf(c.reply) {
		return c.fail(fmt.Errorf("%w: a %T reply for a %T call", errMalformed, c.reply, reply))
	}
	methods[c.m].copyReply(reply, c.reply)
	return nil
}

// fail closes the connection after a malformed frame; rpc.Client hands the
// error, which wraps rpc.ErrShutdown, to every pending call.
func (c *clientCodec) fail(err error) error {
	c.conn.Close()
	return fmt.Errorf("%w: %v", rpc.ErrShutdown, err)
}

func (c *clientCodec) Close() error { return c.conn.Close() }

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

// Call implements Caller: it issues m over part's connection, dropping the
// connection if the failure killed it.
func (t *RPCTransport) Call(part int, m Method, req, reply any) error {
	if part < 0 || part >= len(t.clients) {
		return fmt.Errorf("cluster: no client for partition %d", part)
	}
	c, err := t.client(part)
	if err != nil {
		return err
	}
	if err := c.Call(methods[m].name, req, reply); err != nil {
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
