package rpc

// Failure-tolerance tests: per-call deadlines, one attempt per call (the
// re-sends are fwd's), and the pool-hygiene regressions for putConn (a conn that failed mid-roundTrip must never be
// pooled as healthy; a request that never touched the wire must never
// discard a healthy conn). They live alongside churn_test.go, which covers
// the pre-existing stale-conn semantics these mechanisms must preserve.

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// silentListener accepts connections and never responds: the shape of a
// hung daemon (process alive, service wedged).
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the conn open, swallow everything, answer nothing.
			go io.Copy(io.Discard, conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestCallDeadlineExpiresOnHungServer(t *testing.T) {
	ln := silentListener(t)
	reg := telemetry.New()
	cli := Dial(ln.Addr().String(), 1).
		WithOptions(Options{CallTimeout: 50 * time.Millisecond}).
		Instrument(reg, nil)
	defer cli.Close()

	start := time.Now()
	_, err := cli.Call(&Message{Op: OpPing, Path: "/hung"})
	if err == nil {
		t.Fatal("call against a hung server should fail")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("hung-server failure should wrap ErrUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}
	if got := reg.Counter("rpc_deadline_expired_total").Value(); got != 1 {
		t.Fatalf("rpc_deadline_expired_total = %d, want 1", got)
	}
	// The timed-out conn must have been discarded, not pooled.
	cli.mu.Lock()
	idle, total := len(cli.idle), cli.total
	cli.mu.Unlock()
	if idle != 0 || total != 0 {
		t.Fatalf("timed-out conn leaked into the pool: idle=%d total=%d", idle, total)
	}
}

// flakyListener refuses (accepts then instantly closes) the first n
// connections, then serves echo.
func flakyListener(t *testing.T, refuse int) (net.Listener, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if seen.Add(1) <= int64(refuse) {
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					req, err := ReadMessage(conn)
					if err != nil {
						return
					}
					if err := WriteMessage(conn, &Message{Op: req.Op, Path: req.Path, Data: req.Data}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln, &seen
}

// TestTransportFailureIsOneAttempt: a call whose conn the server drops is
// one attempt that ends in ErrUnavailable — sending it again is fwd's
// decision — and leaves the client working: the next call is served.
func TestTransportFailureIsOneAttempt(t *testing.T) {
	ln, seen := flakyListener(t, 1)
	cli := Dial(ln.Addr().String(), 1)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpPing, Path: "/flaky"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dropped conn: want ErrUnavailable, got %v", err)
	}
	if got := seen.Load(); got != 1 {
		t.Fatalf("the failed call opened %d conns, want 1", got)
	}
	resp, err := cli.Call(&Message{Op: OpPing, Path: "/flaky"})
	if err != nil {
		t.Fatalf("the call after the failure: %v", err)
	}
	if resp.Path != "/flaky" {
		t.Fatalf("wrong response: %+v", resp)
	}
}

// readThenCloseListener reads one full request frame, then closes the conn
// without responding — the worst mid-roundTrip shape: the request is on
// the wire, the response will never come.
func readThenCloseListener(t *testing.T, after *atomic.Bool) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					req, err := ReadMessage(conn)
					if err != nil {
						return
					}
					if !after.Load() {
						return // close mid-roundTrip, request half-served
					}
					if err := WriteMessage(conn, &Message{Op: req.Op, Path: req.Path}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestMidRoundTripFailureNeverPoolsConn is the putConn audit regression:
// a connection whose exchange broke after the request was written must be
// discarded, and the client must fully recover once the server heals.
func TestMidRoundTripFailureNeverPoolsConn(t *testing.T) {
	var healthy atomic.Bool
	ln := readThenCloseListener(t, &healthy)
	reg := telemetry.New()
	cli := Dial(ln.Addr().String(), 2).Instrument(reg, nil)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpWrite, Path: "/mid", Data: []byte("x")}); err == nil {
		t.Fatal("mid-roundTrip close should fail the call")
	}
	cli.mu.Lock()
	idle, total := len(cli.idle), cli.total
	cli.mu.Unlock()
	if idle != 0 || total != 0 {
		t.Fatalf("half-broken conn kept: idle=%d total=%d (must both be 0)", idle, total)
	}

	healthy.Store(true)
	resp, err := cli.Call(&Message{Op: OpWrite, Path: "/ok"})
	if err != nil {
		t.Fatalf("recovery call failed: %v", err)
	}
	if resp.Path != "/ok" {
		t.Fatalf("wrong response %+v", resp)
	}
	cli.mu.Lock()
	idle = len(cli.idle)
	cli.mu.Unlock()
	if idle != 1 {
		t.Fatalf("healthy conn should be pooled after recovery, idle=%d", idle)
	}
}

// TestValidationErrorKeepsPoolUntouched: a request that cannot be framed
// is a permanent local error — no dial, no retry, no conn discarded. (What
// it tells fwd's gate — nothing — is TestGateClassTable's local row.)
func TestValidationErrorKeepsPoolUntouched(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 1).Instrument(reg, nil)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpPing, Path: strings.Repeat("p", maxPath)}); err == nil {
		t.Fatal("oversized path must fail")
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != 0 {
		t.Fatalf("validation failure dialed %d times, want 0", got)
	}
	// The client still works.
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/fine"}); err != nil {
		t.Fatalf("client wedged after validation error: %v", err)
	}
}

// TestDeadlineClearedBeforePooling: a pooled conn keeps the deadline of
// the exchange it completed, so the deadline must be re-armed before every
// exchange — a later exchange that starts after the old absolute deadline
// would fail instantly otherwise.
func TestDeadlineClearedBeforePooling(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 1).
		WithOptions(Options{CallTimeout: 40 * time.Millisecond}).
		Instrument(reg, nil)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	// Sit past the first call's absolute deadline, then reuse the conn.
	time.Sleep(60 * time.Millisecond)
	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatalf("pooled conn inherited an expired deadline: %v", err)
	}
	if got := reg.Counter("rpc_stale_retries_total").Value(); got != 0 {
		t.Fatalf("reuse needed the stale-retry path (%d), deadline not re-armed", got)
	}
}
