package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// This file provides the real-network transport: each graph server is
// exposed on a TCP listener, and RPCTransport dials every server. Both ends
// speak one frame format over the codec in codec.go: a uint32 length, a
// header (sequence number, method index, error text), then the request or
// reply under its method's layout. The server is a read loop over the method
// table; the client keeps a table of pending calls per connection, keyed by
// sequence number, filled by one reader goroutine. The wire types are the
// same SampleRequest / AttrsRequest pairs used by LocalTransport, so the
// client is oblivious to which transport it runs on.

// maxFrame caps a frame's length. A longer frame closes the connection; a
// reply that would exceed it is answered with an error instead.
const maxFrame = 1 << 28

// keepBuf is the largest read or write buffer a connection keeps between
// frames; bigger frames get a buffer of their own.
const keepBuf = 64 << 10

// errMalformed marks a frame that breaks the format; the connection it came
// on is closed.
var errMalformed = errors.New("cluster: malformed frame")

// errTransportClosed fails every call after RPCTransport.Close.
var errTransportClosed = errors.New("cluster: transport closed")

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
// clients see their connections drop as at a crashed process. Idempotent.
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

// RPCTransport holds one connection per partition, dialed lazily again
// after a connection dies so a restarted server is transparently
// re-adopted: a dead connection fails the call that finds it, that call
// drops it, and the next call to that shard dials afresh.
type RPCTransport struct {
	facade
	addrs []string

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
}

// DialRPC connects to the given per-partition addresses; any unreachable
// address fails construction.
func DialRPC(addrs []string) (*RPCTransport, error) {
	t := &RPCTransport{
		addrs: append([]string(nil), addrs...),
		conns: make([]*clientConn, len(addrs)),
	}
	t.facade = facade{t}
	for i := range t.addrs {
		c, err := t.dial(context.Background(), i)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.conns[i] = c
	}
	return t, nil
}

// dial establishes one connection to part's server and starts its reader.
func (t *RPCTransport) dial(ctx context.Context, part int) (*clientConn, error) {
	conn, err := (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", t.addrs[part])
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w: %w", t.addrs[part], ErrUnreachable, err)
	}
	c := &clientConn{conn: conn, pending: make(map[uint64]*pendingCall)}
	go c.readLoop()
	return c, nil
}

// conn returns part's connection, dialing if there is none.
func (t *RPCTransport) conn(ctx context.Context, part int) (*clientConn, error) {
	t.mu.Lock()
	c, closed := t.conns[part], t.closed
	t.mu.Unlock()
	if closed {
		return nil, errTransportClosed
	}
	if c != nil {
		return c, nil
	}
	c, err := t.dial(ctx, part)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.closed:
		c.conn.Close() // its reader then exits
		return nil, errTransportClosed
	case t.conns[part] != nil: // a concurrent caller dialed first
		c.conn.Close()
		return t.conns[part], nil
	}
	t.conns[part] = c
	return c, nil
}

// Call implements Caller: it issues m over part's connection and drops the
// connection if it died.
func (t *RPCTransport) Call(ctx context.Context, part int, m Method, req, reply any) error {
	if part < 0 || part >= len(t.addrs) {
		return fmt.Errorf("cluster: no client for partition %d", part)
	}
	c, err := t.conn(ctx, part)
	if err != nil {
		return err
	}
	if err = c.call(ctx, m, req, reply); err != nil && c.dead() {
		t.mu.Lock()
		if t.conns[part] == c { // never a newer connection
			t.conns[part] = nil
		}
		t.mu.Unlock()
	}
	return err
}

// Close implements Caller: every connection is closed and its pending calls
// fail; double-Close is safe.
func (t *RPCTransport) Close() error {
	t.mu.Lock()
	conns := t.conns
	t.conns, t.closed = make([]*clientConn, len(conns)), true
	t.mu.Unlock()
	var errs []error
	for i, c := range conns {
		if c == nil {
			continue
		}
		if err := c.fail(errTransportClosed); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("cluster: close %s: %w", t.addrs[i], err))
		}
	}
	return errors.Join(errs...)
}

// clientConn is the client end of one connection. A call registers under a
// fresh seq and writes its frame whole under wmu; one reader goroutine hands
// each reply to the call pending under the reply's seq and drops a reply no
// call waits for. A malformed reply body fails only its own call; a frame
// that breaks the format, or a failed read or write, kills the connection
// and fails every pending call; its reader exits then.
type clientConn struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*pendingCall
	reads   uint64 // reply frames read so far
	err     error  // why the connection died; nil while it lives
}

// pendingCall is one call waiting for its reply.
type pendingCall struct {
	m     Method
	reads uint64 // the connection's reads when the call was written
	reply any    // the decoded reply, once done is closed
	err   error
	done  chan struct{}
}

// call issues m and waits for its reply or for ctx. A call whose ctx ends
// first gives up its pending entry, so its reply is dropped when it comes;
// if nothing at all was read since the call was written, the peer is
// silent and the connection is closed, so the next call redials. A write is
// bounded by ctx's deadline too: a frame cut short leaves the stream
// unreadable, so a failed write kills the connection.
func (c *clientConn) call(ctx context.Context, m Method, req, reply any) error {
	pc := &pendingCall{m: m, done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	c.seq++
	seq := c.seq
	pc.reads = c.reads
	c.pending[seq] = pc
	c.mu.Unlock()

	c.wmu.Lock()
	frame, err := putFrame(c.wbuf, frameHeader{seq: seq, method: uint8(m)}, methods[m].putReq, req)
	c.wbuf = keep(frame)
	if err == nil {
		deadline, _ := ctx.Deadline()
		werr := c.conn.SetWriteDeadline(deadline)
		if werr == nil {
			_, werr = c.conn.Write(frame)
		}
		if werr != nil {
			c.fail(werr)
		}
	}
	c.wmu.Unlock()
	if err != nil { // the request was never sent
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return err
	}

	select {
	case <-pc.done:
	case <-ctx.Done():
		c.mu.Lock()
		_, waiting := c.pending[seq]
		delete(c.pending, seq)
		silent := c.reads == pc.reads
		c.mu.Unlock()
		if !waiting { // the reply won the race
			<-pc.done
			break
		}
		if silent {
			c.fail(fmt.Errorf("no reply since a %v call was written: %w", m, ctx.Err()))
		}
		return fmt.Errorf("cluster: %v call: %w: %w", m, ErrUnreachable, ctx.Err())
	}
	if pc.err != nil {
		return pc.err
	}
	methods[m].copyReply(reply, pc.reply)
	return nil
}

// readLoop delivers replies until the connection dies.
func (c *clientConn) readLoop() {
	r := bufio.NewReader(c.conn)
	var buf []byte
	for {
		frame, err := readFrame(r, buf)
		if err == nil {
			buf = keep(frame)
			err = c.deliver(frame)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// deliver hands one reply frame to the call pending under its seq.
func (c *clientConn) deliver(frame []byte) error {
	h, body, err := parseFrame(frame)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.reads++
	pc := c.pending[h.seq]
	if pc != nil && pc.m != Method(h.method) {
		c.mu.Unlock()
		return fmt.Errorf("%w: a %v reply to a %v call", errMalformed, Method(h.method), pc.m)
	}
	delete(c.pending, h.seq)
	c.mu.Unlock()
	if pc == nil {
		return nil // its call gave up
	}
	if h.err != "" {
		pc.err = errors.New(h.err)
	} else if pc.reply, err = methods[pc.m].getReply(body); err != nil {
		pc.err = fmt.Errorf("cluster: malformed %v reply: %v", pc.m, err)
	}
	close(pc.done)
	return nil
}

// fail kills the connection with cause, the first cause sticking, and
// fails every pending call with an error wrapping ErrUnreachable. It
// returns the connection's Close error.
func (c *clientConn) fail(cause error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("cluster: connection to %s: %w: %w", c.conn.RemoteAddr(), ErrUnreachable, cause)
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, pc := range pending {
		pc.err = c.err
		close(pc.done)
	}
	return c.conn.Close()
}

// dead reports whether the connection has died.
func (c *clientConn) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}
