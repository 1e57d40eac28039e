package rpc

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Handler processes one request and returns the response. Handlers must be
// safe for concurrent use; the server runs one goroutine per connection.
//
// Ownership: the request (including its Data, which aliases a pooled
// payload buffer) is valid only until the handler returns — a handler that
// needs request bytes longer must copy them. The server releases the
// request, and the response, back to the pools once the response frame has
// been written, so a response built in GetMessage costs no allocation;
// returning the request itself as the response is allowed.
type Handler func(*Message) *Message

// Server accepts framed-RPC connections and dispatches requests to a
// Handler. The zero value is unusable; construct with NewServer.
type Server struct {
	handler  Handler
	limits   ServerLimits
	checksum bool
	sink     Sink

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	inflight atomic.Int64

	// Telemetry handles are nil on an uninstrumented server; every method
	// on them is then a no-op (see internal/telemetry).
	tel struct {
		shed, checksumErrors  *telemetry.Counter
		connsGauge, inflGauge *telemetry.Gauge
	}
}

// NewServer returns a server that dispatches every request to handler.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// WithLimits installs admission limits (see ServerLimits). Call before
// Listen. Returns s for chaining.
func (s *Server) WithLimits(l ServerLimits) *Server {
	s.limits = l.withDefaults()
	return s
}

// WithChecksum makes the server append a CRC32C trailer to every response
// it sends. Inbound frames are verified whenever they carry a trailer,
// regardless of this setting. Call before Listen. Returns s for chaining.
func (s *Server) WithChecksum(on bool) *Server {
	s.checksum = on
	return s
}

// WithSink makes the server land every request payload it decodes in the
// segments sink lends (see Sink); a nil sink lands them in pooled buffers.
// Call before Listen. Returns s for chaining.
func (s *Server) WithSink(sink Sink) *Server {
	s.sink = sink
	return s
}

// Instrument attaches overload metrics to the server: requests shed at the
// in-flight cap, frames dropped on a checksum mismatch, and live
// connection/in-flight gauges. label is an optional Prometheus label set
// (e.g. `{node="ion00"}`) so per-daemon servers stay distinguishable in
// one registry. Call before Listen; reg may be nil. Returns s for
// chaining.
func (s *Server) Instrument(reg *telemetry.Registry, label string) *Server {
	s.tel.shed = reg.Counter("rpc_server_shed_total" + label)
	s.tel.checksumErrors = reg.Counter("rpc_checksum_errors_total" + label)
	s.tel.connsGauge = reg.Gauge("rpc_server_conns" + label)
	s.tel.inflGauge = reg.Gauge("rpc_server_inflight" + label)
	return s
}

// Listen binds the server to addr ("host:port", empty port for ephemeral)
// and starts accepting in a background goroutine. It returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.ListenOn(ln)
}

// ListenOn starts accepting on an already-bound listener. It exists so
// callers can interpose on the transport (e.g. faultnet wraps the daemon's
// listener with a network fault injector in chaos tests). The server takes
// ownership of ln and closes it on Close.
func (s *Server) ListenOn(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.tel.connsGauge.Set(int64(len(s.conns)))
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.tel.connsGauge.Set(int64(len(s.conns)))
		s.mu.Unlock()
		conn.Close()
	}()
	w := newWire(conn)
	for {
		req, err := w.readFrame(nil, s.sink)
		if err != nil {
			// A checksum mismatch means the frame reached us but its bytes
			// are untrustworthy — including the opcode and offset, so no
			// response can be built. Count it and discard the connection:
			// the client sees a broken exchange (transport failure), and the
			// caller's re-send and gate accounting apply.
			if errors.Is(err, ErrChecksum) {
				s.tel.checksumErrors.Inc()
			}
			return // EOF or broken connection
		}
		resp := s.dispatch(req)
		if resp == nil {
			// Echo only identity fields; never stale flags or payload from
			// the request (see the response-hygiene audit in ion).
			resp = GetMessage()
			resp.Op, resp.Path, resp.Trace = req.Op, req.Path, req.Trace
		}
		err = writeFrame(conn, resp, s.checksum)
		// The exchange is over: recycle both frames (the handler contract
		// forbids it retaining either past this point). Handlers may return
		// the request itself or a shallow copy of it — either way the
		// shared frame buffer, or the shared lease, must go back exactly
		// once: with the request.
		if resp != req {
			if len(req.body) > 0 && len(resp.body) > 0 && &resp.body[0] == &req.body[0] {
				resp.body = nil
			}
			if resp.lease != nil && resp.lease == req.lease {
				resp.lease = nil
			}
			resp.Release()
		}
		req.Release()
		if err != nil {
			return
		}
	}
}

// dispatch applies the in-flight cap around one handler invocation: a
// request arriving above MaxInflight is shed with a busy response instead
// of entering the handler, so a flood of connections cannot queue
// unbounded work behind the daemon.
func (s *Server) dispatch(req *Message) *Message {
	if s.limits.MaxInflight <= 0 {
		return s.handler(req)
	}
	if n := s.inflight.Add(1); n > int64(s.limits.MaxInflight) {
		s.inflight.Add(-1)
		s.tel.shed.Inc()
		return busyResponse(req, s.limits.RetryAfter)
	}
	s.tel.inflGauge.Set(s.inflight.Load())
	defer func() {
		s.tel.inflGauge.Set(s.inflight.Add(-1))
	}()
	return s.handler(req)
}

// Close stops accepting, closes every open connection, and waits for the
// connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a pooled connection set to one server address. Requests are
// serialized per connection; up to PoolSize requests proceed in parallel.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	idle   []*wire
	total  int
	max    int
	closed bool
	cond   *sync.Cond

	// Telemetry handles are nil on an uninstrumented client; every method
	// on them is then a no-op (see internal/telemetry).
	tel struct {
		dials, dialErrors, calls, callErrors *telemetry.Counter
		staleRetries, staleEvictions         *telemetry.Counter
		deadlineExpired, busyResponses       *telemetry.Counter
		checksumErrors                       *telemetry.Counter
		latency                              *telemetry.Histogram
	}
	tracer *telemetry.Tracer
}

// DefaultPoolSize is the per-target connection pool size.
const DefaultPoolSize = 4

// Dial returns a client for addr with the given pool size (≤0 selects
// DefaultPoolSize). Connections are established lazily.
func Dial(addr string, poolSize int) *Client {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &Client{addr: addr, max: poolSize}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

// WithOptions installs failure-tolerance options (the deadline, the
// checksum — see Options). Call before the first Call. Returns c for
// chaining.
func (c *Client) WithOptions(o Options) *Client {
	c.opts = o
	return c
}

// Instrument attaches a metrics registry and tracer to the client. Call
// it before the first Call; either argument may be nil. It returns c for
// chaining. The counters record dial activity and the stale-connection
// retry path (retries taken, idle siblings evicted), so connection-churn
// behaviour is observable and testable; latency covers every Call.
func (c *Client) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) *Client {
	c.tel.dials = reg.Counter("rpc_dials_total")
	c.tel.dialErrors = reg.Counter("rpc_dial_errors_total")
	c.tel.calls = reg.Counter("rpc_calls_total")
	c.tel.callErrors = reg.Counter("rpc_call_errors_total")
	c.tel.staleRetries = reg.Counter("rpc_stale_retries_total")
	c.tel.staleEvictions = reg.Counter("rpc_stale_evictions_total")
	c.tel.deadlineExpired = reg.Counter("rpc_deadline_expired_total")
	c.tel.busyResponses = reg.Counter("rpc_busy_responses_total")
	c.tel.checksumErrors = reg.Counter("rpc_checksum_errors_total")
	c.tel.latency = reg.Histogram("rpc_call_latency_seconds", telemetry.LatencyBuckets())
	c.tracer = tracer
	return c
}

// acquire returns a connection and whether it came from the idle pool (a
// pooled connection may have been closed by the server while idle; a
// freshly dialed one cannot have been). It takes an idle connection when
// there is one, dials while the pool has room, and otherwise waits for a
// slot. With fresh set it never hands out an idle connection: it is the
// retry after a pooled connection turned out stale (e.g. a server
// restart), which makes its idle siblings suspect too, so when the pool is
// at capacity it evicts them to make room for the dial.
func (c *Client) acquire(fresh bool) (w *wire, pooled bool, err error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, false, ErrClosed
		}
		if n := len(c.idle); n > 0 && (!fresh || c.total >= c.max) {
			idle := c.idle[n-1]
			c.idle = c.idle[:n-1]
			if !fresh {
				c.mu.Unlock()
				return idle, true, nil
			}
			c.total--
			idle.conn.Close()
			c.tel.staleEvictions.Inc()
			continue
		}
		if c.total < c.max {
			c.total++
			break
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	c.tel.dials.Inc()
	conn, err := c.netDial()
	if err != nil {
		c.tel.dialErrors.Inc()
		c.mu.Lock()
		c.total--
		c.cond.Signal()
		c.mu.Unlock()
		return nil, false, err
	}
	return newWire(conn), false, nil
}

// putConn ends w's exchange: back to the idle pool, or closed when the
// exchange broke it — or left reply bytes unread in its buffer, which the
// next exchange would take for its own reply.
func (c *Client) putConn(w *wire, broken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if broken || c.closed || w.br.Buffered() > 0 {
		w.conn.Close()
		c.total--
	} else {
		c.idle = append(c.idle, w)
	}
	c.cond.Signal()
}

// netDial establishes one TCP connection, bounded by CallTimeout when set
// so a black-holed address cannot stall a call past its deadline.
func (c *Client) netDial() (net.Conn, error) {
	if c.opts.CallTimeout > 0 {
		return net.DialTimeout("tcp", c.addr, c.opts.CallTimeout)
	}
	return net.Dial("tcp", c.addr)
}

// noteTimeout counts deadline expiries so hung-server detection is
// observable separately from other transport failures.
func (c *Client) noteTimeout(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.tel.deadlineExpired.Inc()
	}
}

// roundTrip performs one request/response exchange on conn and returns the
// connection to the pool (or discards it on failure).
//
// Pool-hygiene invariants (see the regression tests in failure_test.go and
// interrupt_test.go): a conn that failed partway through an exchange —
// bytes possibly on the wire, a response possibly half-read — is always
// discarded, never pooled, and so is one whose read buffer still holds
// bytes after the reply (putConn); a conn that completed an exchange under a
// deadline has the deadline cleared before pooling, so it cannot fail
// spuriously on reuse; and a conn whose Interrupt fired while it was bound
// is discarded even if the exchange completed first, because Fire's
// expired deadline may be the last one written to it.
func (c *Client) roundTrip(w *wire, req *Message, it *Interrupt) (*Message, error) {
	conn := w.conn
	if c.opts.CallTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.opts.CallTimeout)); err != nil {
			c.putConn(w, true)
			return nil, err
		}
	}
	// Bind after the deadline is set: from here a Fire is always the last
	// deadline this conn sees.
	if !it.bind(conn) {
		c.putConn(w, true)
		return nil, ErrInterrupted
	}
	resp, err := exchange(w, req, c.opts.WireChecksum)
	if it.unbind() {
		resp.Release()
		c.putConn(w, true)
		return nil, ErrInterrupted
	}
	if err != nil {
		// A corrupted response is a transport failure like any other: the
		// conn is discarded here and the call ends unavailable.
		if errors.Is(err, ErrChecksum) {
			c.tel.checksumErrors.Inc()
		}
		c.noteTimeout(err)
		c.putConn(w, true)
		return nil, err
	}
	if c.opts.CallTimeout > 0 {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			// The exchange completed; only the conn's future is suspect.
			c.putConn(w, true)
			return resp, nil
		}
	}
	c.putConn(w, false)
	return resp, nil
}

// exchange writes req and reads the response it provokes: into req.Dst when
// the payload fits, and with the request's own Path and ClientID on hand
// for the reply that echoes them.
func exchange(w *wire, req *Message, checksum bool) (*Message, error) {
	if err := writeFrame(w.conn, req, checksum); err != nil {
		return nil, err
	}
	w.path, w.id = req.Path, req.ClientID
	return w.readFrame(req.Dst, nil)
}

// Call sends req and waits for the response. Safe for concurrent use.
// Every error it returns is an *Error, whose Class says how the call ended
// (see call for what each class costs).
//
// A call is one attempt. Transport-level failures (dial errors, broken or
// timed-out exchanges) end it as ClassUnavailable; whether to send it
// again is the caller's (fwd's re-send loop reads Options.MaxRetries).
// Answers — application errors, busy and fenced responses — surface with
// the response.
func (c *Client) Call(req *Message) (*Message, error) {
	return c.CallInterruptible(req, nil)
}

// CallInterruptible is Call with an abandon handle: once it.Fire has run,
// the call returns ClassInterrupted — immediately if it is inside an
// exchange, before touching the wire if it has not started one yet. An
// interruption is the caller's own decision, not evidence about the
// server. A nil it never interrupts.
func (c *Client) CallInterruptible(req *Message, it *Interrupt) (*Message, error) {
	start := time.Now()
	resp, err := c.call(req, it)
	took := time.Since(start)
	c.tel.calls.Inc()
	c.tel.latency.ObserveDuration(took)
	if err != nil {
		c.tel.callErrors.Inc()
	}
	if c.tracer != nil {
		bytes := int64(len(req.Data))
		if resp != nil {
			bytes += int64(len(resp.Data))
		}
		c.tracer.RecordHop(req.Trace, telemetry.Hop{Layer: "rpc", Start: start, Duration: took, Bytes: bytes, Note: c.addr})
	}
	return resp, err
}

// call runs the one attempt of a Call. What each class costs is decided
// here, once:
//
//	ok, app, busy, fenced   an answer, returned with the response (whether
//	                        a shed request goes again is the caller's —
//	                        fwd's re-send loop, paced by its gate)
//	local, closed,          no verdict on the server: returned
//	interrupted
//	unavailable             returned, for the caller to send again or not
//	                        (fwd: up to MaxRetries times); but when the pass
//	                        ran on a pooled conn — one that may have gone
//	                        stale while idle, a server restart — first one
//	                        more pass on a fresh dial, which spends no
//	                        attempt
//
// So one Call costs at most 2 exchanges, and a call that ends unavailable
// is one failed attempt — what fwd's gate counts.
func (c *Client) call(req *Message, it *Interrupt) (*Message, error) {
	resp, pooled, e := c.attempt(req, it, false)
	if e != nil && e.Class == ClassUnavailable && pooled {
		c.tel.staleRetries.Inc()
		resp, _, e = c.attempt(req, it, true)
	}
	switch {
	case e == nil:
		return resp, nil
	case e.Class == ClassBusy:
		c.tel.busyResponses.Inc()
	}
	return resp, e
}

// attempt is one pass of call: take a conn — a fresh dial when fresh — and
// exchange on it, then sort what came back into its class. It is the one
// place a reply is read for its class. pooled reports that the conn came
// from the idle pool.
func (c *Client) attempt(req *Message, it *Interrupt, fresh bool) (resp *Message, pooled bool, e *Error) {
	if err := validateMessage(req); err != nil {
		return nil, false, &Error{Class: ClassLocal, Addr: c.addr, Err: err}
	}
	w, pooled, err := c.acquire(fresh)
	if err == nil {
		resp, err = c.roundTrip(w, req, it)
	}
	switch {
	case errors.Is(err, ErrClosed):
		return nil, false, &Error{Class: ClassClosed, Addr: c.addr}
	case errors.Is(err, ErrInterrupted):
		return nil, false, &Error{Class: ClassInterrupted, Addr: c.addr}
	case err != nil:
		return nil, pooled, &Error{Class: ClassUnavailable, Addr: c.addr, Err: err}
	case resp.Busy:
		return resp, pooled, &Error{Class: ClassBusy, Addr: c.addr, RetryAfter: resp.RetryAfter}
	case strings.HasPrefix(resp.Err, staleEpochText):
		// The node's fence floor rides the response's epoch trailer.
		return resp, pooled, &Error{Class: ClassFenced, Addr: c.addr, Fence: resp.Epoch, Err: errors.New(resp.Err)}
	case resp.Err != "":
		return resp, pooled, &Error{Class: ClassApp, Addr: c.addr, Err: errors.New(resp.Err)}
	}
	return resp, pooled, nil
}

// Close releases all pooled connections. In-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, w := range c.idle {
		w.conn.Close()
	}
	c.idle = nil
	c.cond.Broadcast()
	return nil
}
