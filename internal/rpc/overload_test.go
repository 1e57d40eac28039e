package rpc

// Overload-protection tests: the busy frame on the wire, server-side
// shedding at the in-flight cap, and what a shed costs. That a busy
// response is a breaker success — shed is "alive and telling you so", never
// one of the transport failures that open circuits and trigger retries — is
// the busy row of the class table (class_test.go). The half-open
// concurrency test pins the breaker's single-probe admission under racing
// callers.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/testkit"
)

func TestBusyFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	in := &Message{Op: OpWrite, Path: "/busy", Busy: true, RetryAfter: 1500 * time.Microsecond}
	go func() { WriteMessage(server, in) }()
	out, err := ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Busy {
		t.Fatal("Busy flag lost on the wire")
	}
	if out.RetryAfter != 1500*time.Microsecond {
		t.Fatalf("RetryAfter = %v, want 1.5ms", out.RetryAfter)
	}

	// A normal frame stays normal: the flag byte must default to clear.
	go func() { WriteMessage(server, &Message{Op: OpRead, Path: "/plain"}) }()
	out, err = ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if out.Busy || out.RetryAfter != 0 {
		t.Fatalf("plain frame carries busy state: %+v", out)
	}
}

func TestRetryAfterSaturatesOnOverflow(t *testing.T) {
	if got := retryAfterMicros(-time.Second); got != 0 {
		t.Fatalf("negative hint encoded as %d, want 0", got)
	}
	if got := retryAfterMicros(100 * 24 * time.Hour); got != 1<<32-1 {
		t.Fatalf("huge hint encoded as %d, want saturation", got)
	}
}

// TestServerShedsAboveMaxInflight: with MaxInflight=1 and one request
// parked in the handler, a second request must be answered busy — carrying
// the retry-after hint — while the breaker stays closed and the retry
// machinery stays idle.
func TestServerShedsAboveMaxInflight(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := telemetry.New()
	srv := NewServer(func(req *Message) *Message {
		entered <- struct{}{}
		<-release
		return &Message{Op: req.Op, Path: req.Path}
	}).WithLimits(ServerLimits{MaxInflight: 1, RetryAfter: 3 * time.Millisecond}).
		Instrument(reg, "")
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := Dial(addr, 2).
		WithOptions(Options{MaxRetries: 3, BreakerThreshold: 1, BreakerCooldown: time.Minute}).
		Instrument(reg, nil)
	defer cli.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := cli.Call(&Message{Op: OpWrite, Path: "/slow"}); err != nil {
			t.Errorf("parked call failed: %v", err)
		}
	}()
	<-entered // the slot is held

	_, err = cli.Call(&Message{Op: OpWrite, Path: "/shed"})
	if err == nil {
		t.Fatal("second call should have been shed")
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("shed should surface ErrBusy, got %v", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("a shed is not a transport failure, but got ErrUnavailable: %v", err)
	}
	if hint := err.(*Error).RetryAfter; hint != 3*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 3ms", hint)
	}

	close(release)
	wg.Wait()

	if got := reg.Counter("rpc_server_shed_total").Value(); got != 1 {
		t.Fatalf("rpc_server_shed_total = %d, want 1", got)
	}
	if got := reg.Counter("rpc_busy_responses_total").Value(); got != 1 {
		t.Fatalf("rpc_busy_responses_total = %d, want 1", got)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got != 0 {
		t.Fatalf("busy response was transport-retried %d times, want 0", got)
	}
	if st := cli.BreakerState(); st != BreakerClosed {
		t.Fatalf("busy response moved the breaker to %v, want closed", st)
	}
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 0 {
		t.Fatalf("rpc_breaker_open_total = %d, want 0 — sheds must not trip breakers", got)
	}
}

// TestShedResponseCostsNothing: a request shed at the in-flight cap is
// answered from the message pool — op, path and trace echoed, busy flag
// and hint set — and the server's release after the write returns the
// envelope, so a daemon does not allocate just because it is overloaded.
func TestShedResponseCostsNothing(t *testing.T) {
	reg := telemetry.New()
	srv := NewServer(func(req *Message) *Message {
		t.Fatal("a request above the in-flight cap reached the handler")
		return nil
	}).WithLimits(ServerLimits{MaxInflight: 1, RetryAfter: 3 * time.Millisecond}).Instrument(reg, "")
	srv.inflight.Store(1) // the one slot is held
	req := &Message{Op: OpWrite, Path: "/shed", Trace: 9}
	shed := func() {
		resp := srv.dispatch(req)
		if !resp.Busy || resp.RetryAfter != 3*time.Millisecond || resp.Op != OpWrite || resp.Path != "/shed" || resp.Trace != 9 {
			t.Fatalf("shed response = %+v", resp)
		}
		resp.Release()
	}
	shed()
	if got := reg.Counter("rpc_server_shed_total").Value(); got != 1 {
		t.Fatalf("rpc_server_shed_total = %d, want 1", got)
	}
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	if got := testing.AllocsPerRun(200, shed); got > 0 {
		t.Errorf("shed response: %.1f allocs per request, want 0", got)
	}
}

// TestBreakerHalfOpenAdmitsExactlyOneProbe: with the breaker open and the
// cooldown elapsed, concurrent callers race for the half-open slot —
// exactly one reaches the server as the probe; every other racer is
// rejected with ErrUnavailable without touching the wire.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cli := Dial(addr, 8).
		WithOptions(Options{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond}).
		Instrument(reg, nil)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want transport failure to open the breaker, got %v", err)
	}
	if cli.BreakerState() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", cli.BreakerState())
	}

	// Rebind with a handler that parks the probe so the half-open window
	// stays observable while the other callers race it.
	var entered atomic.Int64
	release := make(chan struct{})
	srv2 := NewServer(func(req *Message) *Message {
		entered.Add(1)
		<-release
		return &Message{Op: req.Op, Path: req.Path}
	})
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	time.Sleep(30 * time.Millisecond) // past the cooldown

	probeDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(&Message{Op: OpPing, Path: "/probe"})
		probeDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	const racers = 8
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cli.Call(&Message{Op: OpPing, Path: "/racer"})
			if errors.Is(err, ErrUnavailable) && errors.Is(err, ErrCircuitOpen) {
				rejected.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := rejected.Load(); got != racers {
		t.Fatalf("%d of %d racers rejected with ErrUnavailable/ErrCircuitOpen", got, racers)
	}
	if got := entered.Load(); got != 1 {
		t.Fatalf("%d callers reached the server during half-open, want exactly the probe", got)
	}

	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe should succeed once released: %v", err)
	}
	if cli.BreakerState() != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", cli.BreakerState())
	}
	if got := reg.Counter("rpc_breaker_half_open_probes_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_half_open_probes_total = %d, want 1", got)
	}
	if got := reg.Counter("rpc_breaker_close_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_close_total = %d, want 1", got)
	}
	if got := reg.Counter("rpc_breaker_rejected_total").Value(); got < racers {
		t.Fatalf("rpc_breaker_rejected_total = %d, want ≥%d", got, racers)
	}
}
