package rpc

// Interrupt tests: a CallInterruptible abandoned before it binds a conn,
// in the middle of an exchange, and after the exchange completed. In every
// case the conn that was bound when Fire ran is discarded (its deadline is
// poisoned), the next Call succeeds on a fresh dial, and the interruption
// leaves no mark on the failure-tolerance accounting: it is the caller's
// decision, not evidence about the server.

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// interruptOpts arms the deadline whose expiry an interruption must not
// count.
var interruptOpts = Options{CallTimeout: 5 * time.Second}

// assertInterruptLeftNoTrace checks the pool and the accounting after an
// interrupted call, then that the client works: want dials in total, the
// last of them the fresh dial the follow-up Call needed.
func assertInterruptLeftNoTrace(t *testing.T, cli *Client, reg *telemetry.Registry, wantDials int64) {
	t.Helper()
	cli.mu.Lock()
	idle, total := len(cli.idle), cli.total
	cli.mu.Unlock()
	if idle != 0 || total != 0 {
		t.Fatalf("interrupted conn kept: idle=%d total=%d (must both be 0)", idle, total)
	}
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/next"}); err != nil {
		t.Fatalf("Call after an interruption: %v", err)
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != wantDials {
		t.Fatalf("rpc_dials_total = %d, want %d (the follow-up call dials afresh)", got, wantDials)
	}
	assertNoFailureAccounting(t, reg)
}

// assertNoFailureAccounting: an interruption is not a transport failure,
// so nothing that counts those may have moved.
func assertNoFailureAccounting(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	for _, name := range []string{"rpc_stale_retries_total", "rpc_deadline_expired_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Fatalf("%s = %d, want 0: an interruption is not a transport failure", name, got)
		}
	}
}

func TestInterruptFiredBeforeBind(t *testing.T) {
	var served atomic.Int64
	srv := NewServer(func(req *Message) *Message {
		served.Add(1)
		return &Message{Op: req.Op, Path: req.Path}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 1).WithOptions(interruptOpts).Instrument(reg, nil)
	defer cli.Close()

	var it Interrupt
	it.Fire()
	_, err = cli.CallInterruptible(&Message{Op: OpPing, Path: "/early"}, &it)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("call with a fired Interrupt: err = %v, want ErrInterrupted", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("ErrInterrupted must not read as ErrUnavailable: it would send the span down the failover path")
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("server handled %d requests, want 0: a call interrupted before bind must not touch the wire", got)
	}
	assertInterruptLeftNoTrace(t, cli, reg, 2)
}

func TestInterruptMidExchange(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := NewServer(func(req *Message) *Message {
		if req.Path == "/parked" {
			entered <- struct{}{}
			<-release
		}
		return &Message{Op: req.Op, Path: req.Path}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	reg := telemetry.New()
	cli := Dial(addr, 1).WithOptions(interruptOpts).Instrument(reg, nil)
	defer cli.Close()

	var it Interrupt
	fired := make(chan struct{})
	go func() {
		defer close(fired)
		<-entered // the request is on the wire and the caller is blocked reading
		it.Fire()
	}()
	start := time.Now()
	_, err = cli.CallInterruptible(&Message{Op: OpWrite, Path: "/parked", Data: []byte("x")}, &it)
	<-fired
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > interruptOpts.CallTimeout/2 {
		t.Fatalf("interrupted call took %v: Fire did not unblock it", elapsed)
	}
	// The Interrupt stays fired: the same logical call cannot start another
	// exchange (a busy or transport retry would otherwise resurrect it).
	if _, err := cli.CallInterruptible(&Message{Op: OpPing}, &it); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("reused fired Interrupt: err = %v, want ErrInterrupted", err)
	}
	assertInterruptLeftNoTrace(t, cli, reg, 3)
}

// fireAfterConn fires it once `after` bytes have been read through it:
// with after = the response frame's length, that is the instant between
// "exchange completed" and "conn unbound".
type fireAfterConn struct {
	net.Conn
	it    *Interrupt
	after int
	read  int
}

func (c *fireAfterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += n
	if c.read == c.after {
		c.it.Fire()
	}
	return n, err
}

func TestInterruptAfterExchangeCompleted(t *testing.T) {
	reply := &Message{Op: OpPing, Path: "/done"}
	srv := NewServer(func(req *Message) *Message { return &Message{Op: reply.Op, Path: reply.Path} })
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 1).WithOptions(interruptOpts).Instrument(reg, nil)
	defer cli.Close()

	var frame bytes.Buffer
	if err := WriteMessage(&frame, reply); err != nil {
		t.Fatal(err)
	}
	w, _, err := cli.acquire(false)
	if err != nil {
		t.Fatal(err)
	}
	var it Interrupt
	resp, err := cli.roundTrip(newWire(&fireAfterConn{Conn: w.conn, it: &it, after: frame.Len()}), &Message{Op: OpPing, Path: "/done"}, &it)
	if !errors.Is(err, ErrInterrupted) || resp != nil {
		t.Fatalf("roundTrip = %v, %v; want nil, ErrInterrupted: Fire ran while the conn was bound, so the outcome is void", resp, err)
	}
	assertInterruptLeftNoTrace(t, cli, reg, 2)

	// Fired once the call has returned, an Interrupt has no conn left to
	// touch: the pooled conn stays healthy and is reused as is.
	var late Interrupt
	if _, err := cli.CallInterruptible(&Message{Op: OpPing, Path: "/kept"}, &late); err != nil {
		t.Fatal(err)
	}
	late.Fire()
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/reuse"}); err != nil {
		t.Fatalf("pooled conn poisoned by a Fire after its call returned: %v", err)
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != 2 {
		t.Fatalf("rpc_dials_total = %d, want 2: the conn of a completed call must be reused", got)
	}
	if got := reg.Counter("rpc_stale_retries_total").Value(); got != 0 {
		t.Fatalf("rpc_stale_retries_total = %d, want 0", got)
	}
}

// TestInterruptAtRandomInstantsNeverPoisonsThePool: 1 000 calls, each
// abandoned at a random instant before, during or after its exchange. Every call either
// succeeds with its own echo or reports ErrInterrupted, and no conn whose
// deadline Fire expired ever reaches the pool — a poisoned one would fail
// its next exchange and show up as a stale retry or a deadline expiry.
func TestInterruptAtRandomInstantsNeverPoisonsThePool(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 2).WithOptions(interruptOpts).Instrument(reg, nil)
	defer cli.Close()

	// Scale the firing delays to this machine's round trip.
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	window := 2 * time.Since(start) / 20

	const calls, workers = 1000, 4
	var interrupted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			payload := []byte{byte(w)}
			for i := 0; i < calls/workers; i++ {
				var it Interrupt
				fired := make(chan struct{})
				// Four regimes — at once, within a round trip, within a few
				// (the pool of 2 makes 4 workers queue), long after — so
				// fires land before the bind, inside the exchange and after
				// the call on any machine.
				delay := time.Duration(rng.Int63n(int64(window)+1)) * []time.Duration{0, 1, 4, 64}[rng.Intn(4)]
				go func() {
					defer close(fired)
					time.Sleep(delay)
					it.Fire()
				}()
				resp, err := cli.CallInterruptible(&Message{Op: OpWrite, Path: "/rand", Data: payload}, &it)
				switch {
				case errors.Is(err, ErrInterrupted):
					interrupted.Add(1)
				case err != nil:
					t.Errorf("worker %d call %d: %v", w, i, err)
				case !bytes.Equal(resp.Data, payload):
					t.Errorf("worker %d call %d: echoed %v, want %v", w, i, resp.Data, payload)
				}
				resp.Release()
				<-fired
			}
		}(w)
	}
	wg.Wait()
	n := interrupted.Load()
	t.Logf("%d of %d calls interrupted (firing window %v)", n, calls, window)
	if n == 0 || n == calls {
		t.Fatalf("the firing window missed the exchange entirely")
	}

	// Drain the pool twice over with plain calls: every pooled conn must
	// serve its exchange first time.
	for i := 0; i < 8; i++ {
		if _, err := cli.Call(&Message{Op: OpPing, Path: "/after"}); err != nil {
			t.Fatalf("plain call %d after the storm: %v", i, err)
		}
	}
	assertNoFailureAccounting(t, reg)
}
