package rpc

// Failure-tolerance tests: per-call deadlines, bounded retries with
// backoff, the per-address circuit breaker, and the pool-hygiene
// regressions for putConn (a conn that failed mid-roundTrip must never be
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

func TestRetriesWithBackoffRecoverFromTransientFailures(t *testing.T) {
	ln, _ := flakyListener(t, 2)
	reg := telemetry.New()
	cli := Dial(ln.Addr().String(), 1).
		WithOptions(Options{MaxRetries: 4}).
		Instrument(reg, nil)
	defer cli.Close()

	resp, err := cli.Call(&Message{Op: OpPing, Path: "/flaky"})
	if err != nil {
		t.Fatalf("retries should have recovered: %v", err)
	}
	if resp.Path != "/flaky" {
		t.Fatalf("wrong response: %+v", resp)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got < 1 {
		t.Fatalf("rpc_retries_total = %d, want ≥1", got)
	}
}

func TestRetriesExhaustedSurfaceUnavailable(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // nothing is listening anymore
	cli := Dial(addr, 1).WithOptions(Options{MaxRetries: 2})
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exhausted retries should wrap ErrUnavailable, got %v", err)
	}
}

func TestBreakerOpensRejectsAndRecovers(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cli := Dial(addr, 1).
		WithOptions(Options{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond}).
		Instrument(reg, nil)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Two consecutive transport failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: want ErrUnavailable, got %v", i, err)
		}
	}
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_open_total = %d, want 1", got)
	}
	if cli.BreakerState() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", cli.BreakerState())
	}

	// While open, calls fail fast with ErrCircuitOpen (no dial attempted).
	dialsBefore := reg.Counter("rpc_dials_total").Value()
	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker should reject with ErrCircuitOpen, got %v", err)
	}
	if !errors.Is(errAfterOpen(cli), ErrUnavailable) {
		t.Fatal("breaker rejection must also wrap ErrUnavailable for failover classification")
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != dialsBefore {
		t.Fatalf("rejected call still dialed (%d → %d)", dialsBefore, got)
	}
	if got := reg.Counter("rpc_breaker_rejected_total").Value(); got < 1 {
		t.Fatalf("rpc_breaker_rejected_total = %d, want ≥1", got)
	}

	// Server returns; after the cooldown a half-open probe closes the
	// breaker and normal service resumes.
	srv2 := echoServer()
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	time.Sleep(60 * time.Millisecond)
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/probe"}); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if got := reg.Counter("rpc_breaker_half_open_probes_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_half_open_probes_total = %d, want 1", got)
	}
	if got := reg.Counter("rpc_breaker_close_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_close_total = %d, want 1", got)
	}
	if cli.BreakerState() != BreakerClosed {
		t.Fatalf("breaker state = %v, want closed", cli.BreakerState())
	}
}

// errAfterOpen re-issues one rejected call to capture the error chain.
func errAfterOpen(cli *Client) error {
	_, err := cli.Call(&Message{Op: OpPing})
	return err
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cli := Dial(addr, 1).
		WithOptions(Options{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond}).
		Instrument(reg, nil)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want transport failure, got %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	// Server still down: the half-open probe fails and re-opens.
	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("probe against dead server should fail, got %v", err)
	}
	if cli.BreakerState() != BreakerOpen {
		t.Fatalf("breaker state after failed probe = %v, want open", cli.BreakerState())
	}
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 2 {
		t.Fatalf("rpc_breaker_open_total = %d, want 2 (initial + failed probe)", got)
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

// TestValidationErrorKeepsPoolAndBreakerUntouched: a request that cannot
// be framed is a permanent local error — no dial, no retry, no breaker
// failure, no conn discarded.
func TestValidationErrorKeepsPoolAndBreakerUntouched(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.New()
	cli := Dial(addr, 1).
		WithOptions(Options{MaxRetries: 3, BreakerThreshold: 1, BreakerCooldown: time.Minute}).
		Instrument(reg, nil)
	defer cli.Close()

	if _, err := cli.Call(&Message{Op: OpPing, Path: strings.Repeat("p", maxPath)}); err == nil {
		t.Fatal("oversized path must fail")
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != 0 {
		t.Fatalf("validation failure dialed %d times, want 0", got)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got != 0 {
		t.Fatalf("validation failure retried %d times, want 0", got)
	}
	if cli.BreakerState() != BreakerClosed {
		t.Fatalf("validation failure tripped the breaker (%v)", cli.BreakerState())
	}
	// The client still works.
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/fine"}); err != nil {
		t.Fatalf("client wedged after validation error: %v", err)
	}
}

// TestDeadlineClearedBeforePooling: a pooled conn that completed an
// exchange under a deadline must not inherit it — a later exchange that
// starts after the old absolute deadline would fail instantly otherwise.
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
		t.Fatalf("reuse needed the stale-retry path (%d), deadline not cleared", got)
	}
}
