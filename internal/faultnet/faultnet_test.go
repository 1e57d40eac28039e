package faultnet

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// startServer runs an rpc echo server behind the injector and returns its
// address.
func startServer(t *testing.T, inj *Injector) (*rpc.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op, Data: req.Data}
	})
	if _, err := srv.ListenOn(WrapListener(ln, inj)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func newClient(t *testing.T, addr string) *rpc.Client {
	t.Helper()
	c := rpc.Dial(addr, 1).WithOptions(rpc.Options{
		CallTimeout:      200 * time.Millisecond,
		BreakerThreshold: 1 << 30, // effectively disabled: these tests probe the faults
	})
	t.Cleanup(func() { c.Close() })
	return c
}

func ping(c *rpc.Client) error {
	_, err := c.Call(&rpc.Message{Op: rpc.OpPing})
	return err
}

func TestNonePassesThrough(t *testing.T) {
	inj := NewInjector(Plan{})
	_, addr := startServer(t, inj)
	if err := ping(newClient(t, addr)); err != nil {
		t.Fatalf("plan None must pass traffic: %v", err)
	}
}

func TestRefuseThenRecover(t *testing.T) {
	inj := NewInjector(Plan{Kind: Refuse})
	_, addr := startServer(t, inj)
	c := newClient(t, addr)
	if err := ping(c); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("refused connection: want ErrUnavailable, got %v", err)
	}
	inj.Set(Plan{})
	if err := ping(c); err != nil {
		t.Fatalf("after clearing Refuse: %v", err)
	}
}

func TestResetKillsInFlightCall(t *testing.T) {
	inj := NewInjector(Plan{})
	_, addr := startServer(t, inj)
	c := newClient(t, addr)
	if err := ping(c); err != nil {
		t.Fatal(err)
	}
	inj.Set(Plan{Kind: Reset})
	if err := ping(c); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("reset connection: want ErrUnavailable, got %v", err)
	}
}

func TestHangTrippedByClientDeadline(t *testing.T) {
	inj := NewInjector(Plan{Kind: Hang})
	_, addr := startServer(t, inj)
	c := newClient(t, addr)
	start := time.Now()
	if err := ping(c); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("hung server: want ErrUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the hang: %v", elapsed)
	}
	// Lifting the fault releases the wedged connection and restores service.
	inj.Set(Plan{})
	if err := ping(c); err != nil {
		t.Fatalf("after lifting Hang: %v", err)
	}
}

func TestDelaySlowsCalls(t *testing.T) {
	const d = 30 * time.Millisecond
	inj := NewInjector(Plan{Kind: Delay, Delay: d})
	_, addr := startServer(t, inj)
	c := newClient(t, addr)
	start := time.Now()
	if err := ping(c); err != nil {
		t.Fatalf("delayed call must still succeed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("call finished in %v, plan delays every I/O by %v", elapsed, d)
	}
}

func TestDropAfterStarvesThenRecovers(t *testing.T) {
	inj := NewInjector(Plan{Kind: DropAfter, Bytes: 4})
	_, addr := startServer(t, inj)
	c := newClient(t, addr)
	if err := ping(c); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("starved connection: want ErrUnavailable, got %v", err)
	}
	inj.Set(Plan{})
	if err := ping(c); err != nil {
		t.Fatalf("after lifting DropAfter: %v", err)
	}
}

// TestServerCloseReleasesHungConnections: a daemon shutting down must not
// wait on connections wedged inside an injected hang.
func TestServerCloseReleasesHungConnections(t *testing.T) {
	inj := NewInjector(Plan{Kind: Hang})
	srv, addr := startServer(t, inj)
	c := newClient(t, addr)
	callDone := make(chan struct{})
	go func() {
		ping(c) // will fail: either deadline or server close
		close(callDone)
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the hang
	closeDone := make(chan struct{})
	go func() {
		srv.Close()
		close(closeDone)
	}()
	for _, ch := range []chan struct{}{closeDone, callDone} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("hung connection was not released")
		}
	}
}

func TestPlanSwapIsAtomic(t *testing.T) {
	inj := NewInjector(Plan{Kind: Delay, Delay: time.Millisecond})
	if got := inj.Plan(); got.Kind != Delay {
		t.Fatalf("Plan() = %v", got)
	}
	inj.Set(Plan{Kind: DropAfter, Bytes: 10})
	if got := inj.Plan(); got.Kind != DropAfter || got.Bytes != 10 {
		t.Fatalf("Plan() after Set = %+v", got)
	}
	if n := inj.consume(6); n != 6 {
		t.Fatalf("consume(6) = %d", n)
	}
	if n := inj.consume(6); n != 4 {
		t.Fatalf("consume beyond budget = %d, want 4", n)
	}
	if n := inj.consume(1); n != 0 {
		t.Fatalf("consume from empty budget = %d", n)
	}
	inj.Set(Plan{Kind: DropAfter, Bytes: 3})
	if n := inj.consume(5); n != 3 {
		t.Fatalf("Set must reset the budget: consume = %d, want 3", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Refuse: "refuse", Reset: "reset",
		Hang: "hang", Delay: "delay", DropAfter: "drop-after",
		Corrupt: "corrupt", Kind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestCorruptDetectedByChecksum: a seeded bit-flipper between a
// checksumming client and server produces ErrChecksum transport failures,
// never silently corrupted payloads — and the flip stream is deterministic
// for a given seed.
func TestCorruptDetectedByChecksum(t *testing.T) {
	inj := NewInjector(Plan{Kind: Corrupt, Seed: 7, FlipOneIn: 3})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op, Data: req.Data}
	}).Instrument(reg, "ion0").WithChecksum(true)
	if _, err := srv.ListenOn(WrapListener(ln, inj)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := rpc.Dial(ln.Addr().String(), 1).WithOptions(rpc.Options{
		CallTimeout:      80 * time.Millisecond,
		MaxRetries:       4,
		BreakerThreshold: 1 << 30,
		WireChecksum:     true,
	})
	defer c.Close()

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	var failed int
	for i := 0; i < 30; i++ {
		resp, err := c.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/x", Data: payload})
		if err != nil {
			failed++ // retries exhausted against repeated flips: transport error, fine
			continue
		}
		for j := range resp.Data {
			if resp.Data[j] != payload[j] {
				t.Fatalf("call %d returned silently corrupted data at byte %d", i, j)
			}
		}
	}
	if inj.Flipped() == 0 {
		t.Fatal("the injector never flipped a bit — the test exercised nothing")
	}
	if failed == 30 {
		t.Fatal("no call ever succeeded at FlipOneIn=3 with retries")
	}

	// Determinism: the same seed replays the same flip decisions.
	a := NewInjector(Plan{Kind: Corrupt, Seed: 42, FlipOneIn: 2})
	b := NewInjector(Plan{Kind: Corrupt, Seed: 42, FlipOneIn: 2})
	for i := 0; i < 200; i++ {
		pa := []byte{0xAA, 0xBB, 0xCC, 0xDD}
		pb := []byte{0xAA, 0xBB, 0xCC, 0xDD}
		fa, fb := a.corrupt(pa), b.corrupt(pb)
		if fa != fb || !bytes.Equal(pa, pb) {
			t.Fatalf("draw %d diverged: %v/%v %x/%x", i, fa, fb, pa, pb)
		}
	}
	if a.Flipped() != b.Flipped() {
		t.Fatalf("flip counts diverged: %d vs %d", a.Flipped(), b.Flipped())
	}
}
