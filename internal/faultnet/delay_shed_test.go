package faultnet

// Composition test: a Delay fault in front of a server that can shed.
// Latency and overload are different signals — a call that crawls through
// a delayed link but completes must count as a plain success (no shed, no
// busy response, no retry), while a genuinely shed call through the same
// slow link must still classify as busy, not as a transport failure.

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func TestDelayedCallIsNotShedOrRetried(t *testing.T) {
	inj := NewInjector(Plan{Kind: Delay, Delay: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		if req.Path == "/hold" {
			parked <- struct{}{}
			<-release
		}
		return &rpc.Message{Op: req.Op, Path: req.Path, Data: req.Data}
	}).WithLimits(rpc.ServerLimits{MaxInflight: 1, RetryAfter: 2 * time.Millisecond}).
		Instrument(reg, "")
	if _, err := srv.ListenOn(WrapListener(ln, inj)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := ln.Addr().String()

	cli := rpc.Dial(addr, 2).
		WithOptions(rpc.Options{CallTimeout: 2 * time.Second, MaxRetries: 3}).
		Instrument(reg, nil)
	defer cli.Close()

	// Sequential calls through the delayed link: slow, but successful —
	// nothing here is overload.
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing, Path: "/slowlink"}); err != nil {
			t.Fatalf("delayed call %d failed: %v", i, err)
		}
		if time.Since(start) < 20*time.Millisecond {
			t.Fatalf("call %d did not traverse the delay", i)
		}
	}
	if got := reg.Counter("rpc_server_shed_total").Value(); got != 0 {
		t.Fatalf("delayed-but-successful calls counted as shed: %d", got)
	}
	if got := reg.Counter("rpc_busy_responses_total").Value(); got != 0 {
		t.Fatalf("delayed-but-successful calls produced busy responses: %d", got)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got != 0 {
		t.Fatalf("delayed-but-successful calls were retried %d times", got)
	}

	// Now genuinely saturate the single in-flight slot: the next call is
	// shed through the same slow link, and classifies as busy — not as
	// the transport failure the delay might suggest.
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/hold"})
		done <- err
	}()
	<-parked
	_, err = cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/shed"})
	if !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("shed through a delayed link: want ErrBusy, got %v", err)
	}
	if errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("shed misclassified as transport failure: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held call failed: %v", err)
	}
	if got := reg.Counter("rpc_server_shed_total").Value(); got != 1 {
		t.Fatalf("rpc_server_shed_total = %d, want exactly the one real shed", got)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got != 0 {
		t.Fatalf("busy response was transport-retried %d times, want 0", got)
	}
}
