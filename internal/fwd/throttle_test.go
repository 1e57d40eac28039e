package fwd

// Adaptive-throttling tests: the AIMD gate's window arithmetic, the
// degrade/probe cycle under sustained sheds, and the client-level contract
// that a saturated I/O node costs latency and degraded chunks — never lost
// bytes, never breaker trips.

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func testGate(cfg ThrottleConfig) *ionGate {
	cfg.Enabled = true
	reg := telemetry.New()
	return newIonGate(cfg.withDefaults(), reg.Gauge("test_window"))
}

func TestGateAIMDShrinkAndGrow(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 8})

	// Multiplicative decrease: 8 → 4 → 2 → 1, floored at MinWindow.
	for _, want := range []int{4, 2, 1, 1} {
		if !g.acquire() {
			t.Fatal("gate should admit below degradeAfter")
		}
		g.onBusy(0)
		if got := g.admitted(); got != want {
			t.Fatalf("window after shed = %d, want %d", got, want)
		}
	}

	// Additive increase: +1/window per success — roughly one full window
	// of successes grows the admission width by one.
	g.mu.Lock()
	g.window = 4
	g.consecBusy = 0
	g.retryUntil = time.Time{}
	g.mu.Unlock()
	for i := 0; i < 5; i++ {
		if !g.acquire() {
			t.Fatalf("acquire %d blocked", i)
		}
		g.onSuccess()
	}
	if got := g.admitted(); got != 5 {
		t.Fatalf("window after a round of successes = %d, want 5", got)
	}

	// Growth saturates at MaxWindow.
	for i := 0; i < 200; i++ {
		if !g.acquire() {
			t.Fatalf("acquire %d blocked", i)
		}
		g.onSuccess()
	}
	if got := g.admitted(); got != 8 {
		t.Fatalf("window after sustained success = %d, want MaxWindow 8", got)
	}
}

func TestGateBlocksAtWindowAndReleases(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 1})
	if !g.acquire() {
		t.Fatal("first acquire should pass")
	}
	second := make(chan bool, 1)
	go func() { second <- g.acquire() }()
	select {
	case <-second:
		t.Fatal("second acquire should block while the window is full")
	case <-time.After(20 * time.Millisecond):
	}
	g.onSuccess() // releases the slot and wakes the waiter
	select {
	case ok := <-second:
		if !ok {
			t.Fatal("released waiter should be admitted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	g.onSuccess()
}

func TestGateDegradesAndProbesBack(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 4})

	// degradeAfter consecutive sheds mark the node saturated.
	for i := 0; i < degradeAfter; i++ {
		if !g.acquire() {
			t.Fatalf("acquire %d should pass before saturation", i)
		}
		g.onBusy(10 * time.Millisecond)
	}
	if !g.saturated() {
		t.Fatal("gate should be saturated after degradeAfter sheds")
	}
	if g.acquire() {
		t.Fatal("saturated gate must degrade, not admit")
	}

	// Once the pacing interval passes, one probe is admitted; its success
	// reopens the window.
	deadline := time.Now().Add(2 * time.Second)
	for g.saturated() {
		if time.Now().After(deadline) {
			t.Fatal("gate never left saturation")
		}
		time.Sleep(time.Millisecond)
	}
	if !g.acquire() {
		t.Fatal("probe after the pacing interval should be admitted")
	}
	g.onSuccess()
	if g.saturated() {
		t.Fatal("successful probe should clear saturation")
	}
	if !g.acquire() {
		t.Fatal("gate should admit normally after recovery")
	}
	g.onSuccess()
}

// sheddingServer answers every data request busy, counting attempts.
type sheddingServer struct {
	mu    sync.Mutex
	calls int
}

func (s *sheddingServer) start(t *testing.T) string {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		if req.Op == rpc.OpPing {
			return &rpc.Message{Op: req.Op}
		}
		s.mu.Lock()
		s.calls++
		s.mu.Unlock()
		resp := &rpc.Message{Op: req.Op, Path: req.Path, Trace: req.Trace, Busy: true, RetryAfter: time.Millisecond}
		return resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestSaturatedIONDegradesToDirectWithoutByteLoss: an I/O node that sheds
// everything still yields a correct, complete file — chunks degrade to the
// direct PFS path — and the breaker records zero transport failures.
func TestSaturatedIONDegradesToDirectWithoutByteLoss(t *testing.T) {
	shed := &sheddingServer{}
	addr := shed.start(t)
	store := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID:     "app",
		Direct:    store,
		ChunkSize: 64,
		RPC:       rpc.Options{CallTimeout: time.Second, BreakerThreshold: 2, BreakerCooldown: time.Minute},
		Throttle:  ThrottleConfig{Enabled: true, MaxWindow: 4},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})

	if err := c.Create("/sat"); err != nil {
		t.Fatalf("create through a shedding node: %v", err)
	}
	payload := bytes.Repeat([]byte{7}, 512)
	n, err := c.Write("/sat", 0, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write under full shed: n=%d err=%v", n, err)
	}

	// Every byte landed exactly once, via the direct path.
	got := make([]byte, len(payload))
	if _, err := store.Read("/sat", 0, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded writes lost or corrupted bytes")
	}

	s := c.Stats()
	if s.ShedResponses == 0 {
		t.Fatal("fwd_shed_responses_total never incremented")
	}
	if s.DegradedOps == 0 {
		t.Fatal("fwd_degraded_ops_total never incremented")
	}
	if s.FailoverOps != 0 {
		t.Fatalf("sheds misrouted through the failover path %d times", s.FailoverOps)
	}
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 0 {
		t.Fatalf("sheds opened the breaker %d times, want 0", got)
	}

	// Reads degrade the same way.
	rbuf := make([]byte, len(payload))
	rn, err := c.Read("/sat", 0, rbuf)
	if err != nil || rn != len(payload) {
		t.Fatalf("read under full shed: n=%d err=%v", rn, err)
	}
	if !bytes.Equal(rbuf, payload) {
		t.Fatal("degraded read returned wrong bytes")
	}
}

// TestGateLocalErrorKeepsBusyStreak: a request rpc refuses before it
// reaches the wire — here a path too long to frame — is no answer from the
// node. It hands its gate slot back without resetting the shed streak or
// growing the window, which would tell a node one shed short of saturated
// that it is fine.
func TestGateLocalErrorKeepsBusyStreak(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 64,
		Throttle: ThrottleConfig{Enabled: true, MaxWindow: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)
	g := c.gateFor(addrs[0])
	g.mu.Lock()
	g.consecBusy, g.window = degradeAfter-1, 2
	g.mu.Unlock()

	if _, err := c.Write("/"+strings.Repeat("p", 1<<16), 0, []byte("x")); err == nil {
		t.Fatal("a path too long to frame was written")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.consecBusy != degradeAfter-1 || g.window != 2 || g.inflight != 0 {
		t.Fatalf("gate after a local error: shed streak %d, window %v, in flight %d; want %d, 2, 0",
			g.consecBusy, g.window, g.inflight, degradeAfter-1)
	}
}

// TestThrottleDisabledIsZeroOverheadPath: with the zero-value config no
// gates exist and calls go straight through — the opt-in contract.
func TestThrottleDisabledIsZeroOverheadPath(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c := newTestClient(t, store, 64)
	c.SetIONs(addrs)
	if g := c.gateFor(addrs[0]); g != nil {
		t.Fatal("disabled throttle must not create gates")
	}
	if err := c.Create("/plain"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 200)
	if _, err := c.Write("/plain", 0, payload); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.ShedResponses != 0 || s.DegradedOps != 0 {
		t.Fatalf("healthy run counted shed=%d degraded=%d", s.ShedResponses, s.DegradedOps)
	}
}

// TestGateIdleRecovery is the regression test for the pinned-window bug:
// the AIMD window only ever grew on successes, so a gate halved during a
// burst stayed small across an idle gap indefinitely — the next burst
// started at the floor on saturation evidence that was minutes stale.
// An idle gap of at least idleRecovery now restores the initial window.
func TestGateIdleRecovery(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 8})
	now := time.Unix(2000, 0)
	g.mu.Lock()
	g.now = func() time.Time { return now }
	g.mu.Unlock()

	// A burst shrinks the window to the floor. The clock steps past each
	// shed's pacing hint (the frozen clock would otherwise hold acquire
	// in its pacing loop forever).
	for i := 0; i < 3; i++ {
		if !g.acquire() {
			t.Fatal("gate should admit below degradeAfter")
		}
		g.onBusy(0)
		now = now.Add(time.Second)
	}
	if got := g.admitted(); got != 1 {
		t.Fatalf("window after burst = %d, want 1", got)
	}

	// A short gap does not reopen it: the evidence is still fresh.
	now = now.Add(5 * time.Second)
	if !g.acquire() {
		t.Fatal("acquire blocked after short gap")
	}
	g.onError()
	if got := g.admitted(); got != 1 {
		t.Fatalf("window after short gap = %d, want still 1", got)
	}

	// An idle gap past idleRecovery restores the initial posture —
	// window, busy streak, and pacing gate all reset.
	g.mu.Lock()
	g.consecBusy = 5
	g.retryUntil = now.Add(time.Hour) // stale pacing gate must not block
	g.mu.Unlock()
	now = now.Add(idleRecovery + time.Second)
	if !g.acquire() {
		t.Fatal("acquire blocked after idle recovery")
	}
	g.onSuccess()
	if got := g.admitted(); got != 8 {
		t.Fatalf("window after idle recovery = %d, want 8", got)
	}
	if g.saturated() {
		t.Fatal("saturation evidence survived idle recovery")
	}
}
