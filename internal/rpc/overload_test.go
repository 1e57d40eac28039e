package rpc

// Overload-protection tests: the busy frame on the wire, server-side
// shedding at the in-flight cap, and what a shed costs. That a busy
// response is never retried — shed is "alive and telling you so", not one
// of the transport failures that trigger retries — is the busy row of the
// class table (class_test.go); what it tells fwd's gate is that table's
// twin, TestGateClassTable.

import (
	"errors"
	"net"
	"sync"
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
// the retry-after hint — after one exchange, not as a transport failure.
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

	cli := Dial(addr, 2).Instrument(reg, nil)
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
	if got := reg.Counter("rpc_dials_total").Value(); got != 2 {
		t.Fatalf("rpc_dials_total = %d, want 2: one conn per concurrent call, none re-dialed", got)
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
