package fwd

// Gate tests: the AIMD window's arithmetic; what each rpc.Class tells the
// gate; the two streaks and their reset rules; the one open → half-open →
// closed cycle either streak drives, with exactly one probe; and the
// client-level contracts — a saturated I/O node costs latency and degraded
// chunks, never lost bytes and never a transport open; an unreachable one
// is refused without touching the wire until its cool-down passes. Every
// cool-down is crossed on the gate's clock seam, never waited out.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agios"
	"repro/internal/faultnet"
	"repro/internal/ion"
	"repro/internal/latency"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// clockedGate is a gate on a policy of its own, armed by th and opts, whose
// clock reads *now: the test moves it.
func clockedGate(th ThrottleConfig, opts rpc.Options) (*ionGate, *time.Time) {
	now := time.Unix(1000, 0)
	reg := telemetry.New()
	pol := newGatePolicy(Config{Throttle: th.withDefaults(), RPC: opts}, reg)
	g := new(ionGate)
	g.init(&pol, reg.Gauge("test_window"))
	g.now = func() time.Time { return now }
	return g, &now
}

// testGate is a throttling gate with nothing else armed.
func testGate(cfg ThrottleConfig) *ionGate {
	cfg.Enabled = true
	g, _ := clockedGate(cfg, rpc.Options{})
	g.now = time.Now
	return g
}

// admit takes one slot that must not be the probe.
func admit(t *testing.T, g *ionGate) {
	t.Helper()
	if probe, err := g.acquire(0); err != nil || probe {
		t.Fatalf("acquire = probe %v, %v; want a plain admission", probe, err)
	}
}

// saturated reports whether the gate's shed half refuses calls right now.
func saturated(g *ionGate) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refusal() == errSaturated && g.now().Before(g.until)
}

func TestGateAIMDShrinkAndGrow(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 8})

	// Multiplicative decrease: 8 → 4 → 2 → 1, floored at MinWindow.
	for _, want := range []int{4, 2, 1, 1} {
		admit(t, g)
		g.release(verdictShed, false, 0)
		if got := g.admitted(); got != want {
			t.Fatalf("window after shed = %d, want %d", got, want)
		}
	}

	// Additive increase: +1/window per success — roughly one full window
	// of successes grows the admission width by one.
	g.mu.Lock()
	g.window = 4
	g.sheds = 0
	g.until = time.Time{}
	g.mu.Unlock()
	for i := 0; i < 5; i++ {
		admit(t, g)
		g.release(verdictTook, false, 0)
	}
	if got := g.admitted(); got != 5 {
		t.Fatalf("window after a round of successes = %d, want 5", got)
	}

	// Growth saturates at MaxWindow.
	for i := 0; i < 200; i++ {
		admit(t, g)
		g.release(verdictTook, false, 0)
	}
	if got := g.admitted(); got != 8 {
		t.Fatalf("window after sustained success = %d, want MaxWindow 8", got)
	}
}

func TestGateBlocksAtWindowAndReleases(t *testing.T) {
	g := testGate(ThrottleConfig{MinWindow: 1, MaxWindow: 1})
	admit(t, g)
	second := make(chan error, 1)
	go func() {
		_, err := g.acquire(0)
		second <- err
	}()
	select {
	case <-second:
		t.Fatal("second acquire should block while the window is full")
	case <-time.After(20 * time.Millisecond):
	}
	g.release(verdictTook, false, 0) // releases the slot and wakes the waiter
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("released waiter refused: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	g.release(verdictTook, false, 0)
}

func TestGateDegradesAndProbesBack(t *testing.T) {
	g, now := clockedGate(ThrottleConfig{Enabled: true, MinWindow: 1, MaxWindow: 4}, rpc.Options{})

	// degradeAfter consecutive sheds mark the node saturated. The clock
	// steps past each shed's pacing hint before the next call.
	for i := 0; i < degradeAfter; i++ {
		*now = now.Add(time.Second)
		admit(t, g)
		g.release(verdictShed, false, 10*time.Millisecond)
	}
	if !saturated(g) {
		t.Fatal("gate should be saturated after degradeAfter sheds")
	}
	if _, err := g.acquire(0); err != errSaturated {
		t.Fatalf("saturated gate: acquire = %v, want errSaturated (degrade)", err)
	}

	// Once the pacing interval passes, exactly one probe is admitted; its
	// success reopens the gate.
	*now = now.Add(time.Second)
	if probe, err := g.acquire(0); !probe || err != nil {
		t.Fatalf("after the pacing interval: acquire = probe %v, %v; want the probe", probe, err)
	}
	if _, err := g.acquire(0); err != errSaturated {
		t.Fatalf("a second caller while the probe is out: %v, want errSaturated", err)
	}
	g.release(verdictTook, true, 0)
	if saturated(g) {
		t.Fatal("successful probe should clear saturation")
	}
	admit(t, g)
	g.release(verdictTook, false, 0)
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
// direct PFS path — and the gate's transport half never opens.
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

// TestGateLocalErrorKeepsStreaksAndProbe: a request rpc refuses before it
// reaches the wire — here a path too long to frame — is no answer from the
// node. It hands its gate slot back without resetting either streak or
// growing the window, which would tell a node one shed short of saturated
// (or one transport failure short of open) that it is fine, and without
// spending the transport half's probe.
func TestGateLocalErrorKeepsStreaksAndProbe(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 64,
		RPC:      rpc.Options{BreakerThreshold: 3, BreakerCooldown: time.Minute},
		Throttle: ThrottleConfig{Enabled: true, MaxWindow: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)
	g := c.gateFor(addrs[0])
	g.mu.Lock()
	g.sheds, g.fails, g.window = degradeAfter-1, 2, 2
	g.mu.Unlock()

	if _, err := c.Write("/"+strings.Repeat("p", 1<<16), 0, []byte("x")); err == nil {
		t.Fatal("a path too long to frame was written")
	}
	g.mu.Lock()
	if g.sheds != degradeAfter-1 || g.fails != 2 || g.window != 2 || g.inflight != 0 {
		t.Fatalf("gate after a local error: shed streak %d, transport streak %d, window %v, in flight %d; want %d, 2, 2, 0",
			g.sheds, g.fails, g.window, g.inflight, degradeAfter-1)
	}
	// Now the gate is open for transport failures and past its cool-down:
	// the local error is the probe, and hands it back.
	g.fails, g.until = 3, time.Time{}
	g.mu.Unlock()
	if _, err := c.Write("/"+strings.Repeat("p", 1<<16), 0, []byte("x")); err == nil {
		t.Fatal("a path too long to frame was written")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.probing || g.fails != 3 || g.pol.probes.Value() != 1 || g.pol.opens.Value() != 0 || g.pol.closes.Value() != 0 {
		t.Fatalf("a local-error probe: probing %v, transport streak %d, probes/opens/closes %d/%d/%d; want the slot back, 3, 1/0/0",
			g.probing, g.fails, g.pol.probes.Value(), g.pol.opens.Value(), g.pol.closes.Value())
	}
}

// TestThrottleDisabledIsZeroOverheadPath: with the zero-value config every
// gate is unarmed — no window, no gauge, no degrade — and calls go
// straight through: the opt-in contract.
func TestThrottleDisabledIsZeroOverheadPath(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	reg := telemetry.New()
	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 64, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)
	for name := range reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "fwd_throttle_window") {
			t.Fatalf("disabled throttle registered %s", name)
		}
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
		admit(t, g)
		g.release(verdictShed, false, 0)
		now = now.Add(time.Second)
	}
	if got := g.admitted(); got != 1 {
		t.Fatalf("window after burst = %d, want 1", got)
	}

	// A short gap does not reopen it: the evidence is still fresh.
	now = now.Add(5 * time.Second)
	admit(t, g)
	g.release(verdictNone, false, 0)
	if got := g.admitted(); got != 1 {
		t.Fatalf("window after short gap = %d, want still 1", got)
	}

	// An idle gap past idleRecovery restores the initial posture —
	// window, busy streak, and pacing gate all reset.
	g.mu.Lock()
	g.sheds = 5
	g.until = now.Add(time.Hour) // stale pacing gate must not block
	g.mu.Unlock()
	now = now.Add(idleRecovery + time.Second)
	admit(t, g)
	g.release(verdictTook, false, 0)
	if got := g.admitted(); got != 8 {
		t.Fatalf("window after idle recovery = %d, want 8", got)
	}
	if saturated(g) {
		t.Fatal("saturation evidence survived idle recovery")
	}
}

// TestGateClassTable is what each rpc.Class tells the gate, and how often
// callION sends a request of that class again, one row per class. Every
// row starts from the same gate — both halves armed, window 4, one shed
// short of half the degrade streak, transport failures at the threshold
// and the cool-down passed, so the call is the half-open probe — and
// checks the window, both streaks, the probe slot, the transport counters
// and what the next caller gets. The oracle: the node took the request on
// → both streaks reset and the window grows; shed → the window halves,
// the shed streak grows, the transport streak resets; unreachable → one
// more transport failure and the gate re-opens; no verdict → nothing
// moves and the probe slot is handed back. Only a shed (busyRetries
// times) and an unreachable attempt (MaxRetries times) are sent again.
func TestGateClassTable(t *testing.T) {
	const threshold, maxRetries = 6, 2
	type want struct {
		window        float64
		sheds, fails  int
		opens, closes int64
		next          error // what the next caller gets: nil = the probe again or a plain admission
		nextProbe     bool
		resends       int // callION's re-sends of a request of this class
	}
	took := want{window: 4.25, closes: 1}
	none := want{window: 4, sheds: 2, fails: threshold, nextProbe: true}
	rows := []struct {
		class rpc.Class
		want  want
	}{
		{rpc.ClassOK, took},
		{rpc.ClassApp, took},
		{rpc.ClassBusy, want{window: 2, sheds: 3, closes: 1, resends: busyRetries}},
		{rpc.ClassFenced, took},
		{rpc.ClassLocal, none},
		{rpc.ClassClosed, none},
		{rpc.ClassInterrupted, none},
		{rpc.ClassUnavailable, want{window: 4, sheds: 2, fails: threshold + 1, opens: 1, next: errCircuitOpen, resends: maxRetries}},
	}
	if len(rows) != len(classRules) {
		t.Fatalf("%d rows for %d classes", len(rows), len(classRules))
	}
	for _, row := range rows {
		opts := rpc.Options{MaxRetries: maxRetries, BreakerThreshold: threshold, BreakerCooldown: time.Minute}
		g, now := clockedGate(ThrottleConfig{Enabled: true, MaxWindow: 8}, opts)
		g.window, g.sheds, g.fails = 4, 2, threshold
		probe, err := g.acquire(0)
		if !probe || err != nil {
			t.Fatalf("class %d: acquire = probe %v, %v; want the half-open probe", row.class, probe, err)
		}
		g.release(classRules[row.class].verdict, probe, time.Millisecond)
		w := row.want
		c := &Client{cfg: Config{RPC: opts}}
		got := want{g.window, g.sheds, g.fails, g.pol.opens.Value(), g.pol.closes.Value(), nil, false,
			c.resends(classRules[row.class].verdict)}
		*now = now.Add(time.Second) // past any shed's pacing, inside the cool-down
		got.nextProbe, got.next = g.acquire(0)
		if got != w || g.probing != w.nextProbe {
			t.Errorf("class %d: got %+v (probing %v), want %+v", row.class, got, g.probing, w)
		}
	}
}

// TestGateMixedShedAndFailStreaks interleaves sheds and transport failures
// on one node and checks the two reset rules: a shed resets the transport
// streak (the node answered), a transport failure keeps the shed streak.
// So degradeAfter sheds saturate the gate however many failures sit
// between them, and failures that never run threshold deep in a row never
// open it, however many there are in total.
func TestGateMixedShedAndFailStreaks(t *testing.T) {
	const threshold = 3 // two unreachable attempts in a row stay below it, three open it
	g, now := clockedGate(ThrottleConfig{Enabled: true, MaxWindow: 8},
		rpc.Options{BreakerThreshold: threshold, BreakerCooldown: time.Minute})
	steps := []struct {
		v            verdict
		sheds, fails int
	}{
		{verdictShed, 1, 0},
		{verdictUnreachable, 1, 1},
		{verdictShed, 2, 0},
		{verdictUnreachable, 2, 1},
		{verdictUnreachable, 2, 2},
		{verdictShed, 3, 0},
		{verdictUnreachable, 3, 1},
		{verdictUnreachable, 3, 2},
		{verdictShed, degradeAfter, 0},
	}
	for i, st := range steps {
		*now = now.Add(time.Second)
		admit(t, g)
		g.release(st.v, false, time.Millisecond)
		if g.sheds != st.sheds || g.fails != st.fails {
			t.Fatalf("step %d: shed streak %d, transport streak %d; want %d, %d", i, g.sheds, g.fails, st.sheds, st.fails)
		}
	}
	if !saturated(g) || g.pol.opens.Value() != 0 {
		t.Fatalf("after degradeAfter sheds among 6 failures: saturated %v, transport opens %d; want true, 0",
			saturated(g), g.pol.opens.Value())
	}
	// A transport failure while saturated keeps the gate saturated — and
	// the third in a row opens it for the cool-down, which outranks the
	// degrade: its calls fail over.
	for i := 0; i < 3; i++ {
		*now = now.Add(time.Second)
		probe, err := g.acquire(0)
		if !probe || err != nil {
			t.Fatalf("failure %d: acquire = probe %v, %v; want the shed half's probe", i, probe, err)
		}
		g.release(verdictUnreachable, probe, 0)
	}
	if g.sheds != degradeAfter || g.pol.opens.Value() != 1 {
		t.Fatalf("shed streak %d, transport opens %d; want %d, 1", g.sheds, g.pol.opens.Value(), degradeAfter)
	}
	if _, err := g.acquire(0); err != errCircuitOpen {
		t.Fatalf("inside the cool-down: %v, want errCircuitOpen", err)
	}
}

// gateClient is a client of one outcomeION with the gate's transport half
// armed, its gate on a clock the test moves.
func gateClient(t *testing.T, opts rpc.Options) (*Client, *outcomeION, string, *telemetry.Registry, *time.Time) {
	t.Helper()
	fake := &outcomeION{content: []byte("x")}
	fake.mode.Store("ok")
	addr := fake.start(t)
	reg := telemetry.New()
	c, err := NewClient(Config{AppID: "app", Direct: pfs.NewStore(pfs.Config{}), RPC: opts, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetIONs([]string{addr})
	now := time.Unix(1000, 0)
	g := c.gateFor(addr)
	g.mu.Lock()
	g.now = func() time.Time { return now }
	g.mu.Unlock()
	return c, fake, addr, reg, &now
}

// statVia runs one Stat and reports the fwd hop's verdict through the
// client's counters: the forwarded and failover totals after it.
func statVia(t *testing.T, c *Client) (forwarded, failover int64) {
	t.Helper()
	if _, err := c.Stat("/x"); err != nil && !errors.Is(err, pfs.ErrNotExist) {
		t.Fatalf("Stat: %v", err)
	}
	s := c.Stats()
	return s.ForwardedOps, s.FailoverOps
}

// TestGateBreakerOpensRejectsAndRecovers: BreakerThreshold unreachable
// calls open the node's gate; while it is open a call fails over without
// touching the wire (no dial) and counts a rejection; once the cool-down
// passes on the gate's clock, one probe is forwarded and closes it.
func TestGateBreakerOpensRejectsAndRecovers(t *testing.T) {
	c, fake, addr, reg, now := gateClient(t, rpc.Options{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	if _, failover := statVia(t, c); failover != 0 {
		t.Fatal("a healthy node failed over")
	}
	fake.srv.Close()

	// Two unreachable calls (MaxRetries 0: one attempt, one failure each)
	// open the gate.
	for i := 0; i < 2; i++ {
		if _, failover := statVia(t, c); failover != int64(i+1) {
			t.Fatalf("call %d: %d failovers, want %d", i, failover, i+1)
		}
	}
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_open_total = %d, want 1", got)
	}

	// While open, a call fails over at once: no dial, no wire request.
	dials, wire := reg.Counter("rpc_dials_total").Value(), fake.wire.Load()
	if _, failover := statVia(t, c); failover != 3 {
		t.Fatalf("open gate: %d failovers, want 3", failover)
	}
	if got := reg.Counter("rpc_dials_total").Value(); got != dials || fake.wire.Load() != wire {
		t.Fatalf("a refused call dialed (%d → %d) or reached the node", dials, got)
	}
	if got := reg.Counter("rpc_breaker_rejected_total").Value(); got != 1 {
		t.Fatalf("rpc_breaker_rejected_total = %d, want 1", got)
	}

	// The node returns; past the cool-down one probe closes the gate.
	fake.listen(t, addr)
	*now = now.Add(time.Minute)
	if _, failover := statVia(t, c); failover != 3 {
		t.Fatalf("the half-open probe failed over (%d failovers)", failover)
	}
	for name, want := range map[string]int64{"rpc_breaker_half_open_probes_total": 1, "rpc_breaker_close_total": 1, "rpc_breaker_open_total": 1} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if forwarded, failover := statVia(t, c); failover != 3 || forwarded != 6 {
		t.Fatalf("after the close: %d forwarded, %d failovers; want 6, 3", forwarded, failover)
	}
}

// TestGateBreakerFailedProbeReopens: a half-open probe against a node
// that is still down re-opens the gate for another cool-down.
func TestGateBreakerFailedProbeReopens(t *testing.T) {
	c, fake, _, reg, now := gateClient(t, rpc.Options{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	fake.srv.Close()
	statVia(t, c) // opens
	*now = now.Add(time.Minute)
	statVia(t, c) // the probe: still down
	if got := reg.Counter("rpc_breaker_open_total").Value(); got != 2 {
		t.Fatalf("rpc_breaker_open_total = %d, want 2 (initial + failed probe)", got)
	}
	*now = now.Add(time.Minute - time.Millisecond)
	dials := reg.Counter("rpc_dials_total").Value()
	if _, failover := statVia(t, c); failover != 3 || reg.Counter("rpc_dials_total").Value() != dials {
		t.Fatalf("inside the new cool-down: %d failovers, dials %d → %d; want 3 and no dial",
			failover, dials, reg.Counter("rpc_dials_total").Value())
	}
}

// TestGateBreakerHalfOpenAdmitsExactlyOneProbe: with the gate open and its
// cool-down passed, concurrent callers race for the half-open slot —
// exactly one is admitted as the probe; every other racer is refused as
// unreachable (a failover, ErrCircuitOpen) while it is out.
func TestGateBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	g, now := clockedGate(ThrottleConfig{}, rpc.Options{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	admit(t, g)
	g.release(verdictUnreachable, false, 0)
	if _, err := g.acquire(0); !errors.Is(err, rpc.ErrUnavailable) || !errors.Is(err, rpc.ErrCircuitOpen) {
		t.Fatalf("open gate: %v, want ErrUnavailable wrapping ErrCircuitOpen", err)
	}
	*now = now.Add(time.Minute)

	const racers = 8
	var wg sync.WaitGroup
	probes := make(chan bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe, err := g.acquire(0)
			if probe != (err == nil) {
				t.Errorf("acquire = probe %v, %v", probe, err)
			}
			probes <- probe
		}()
	}
	wg.Wait()
	close(probes)
	admitted := 0
	for p := range probes {
		if p {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("%d racers admitted during half-open, want exactly the probe", admitted)
	}
	g.release(verdictTook, true, 0)
	admit(t, g)
	g.release(verdictTook, false, 0)
	for name, v := range map[string]*telemetry.Counter{"probes": g.pol.probes, "closes": g.pol.closes, "rejects": g.pol.rejects} {
		want := map[string]int64{"probes": 1, "closes": 1, "rejects": racers}[name]
		if v.Value() != want {
			t.Fatalf("%s = %d, want %d", name, v.Value(), want)
		}
	}
}

// TestGateProbeAbandonedToWinningHedge: the transport half's one probe is
// a read whose hedge wins — the primary, interrupted, carries no verdict.
// The slot must return to the gate, or every later call would be refused
// for good; the next call is the probe and closes the gate.
func TestGateProbeAbandonedToWinningHedge(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	inj := faultnet.NewInjector(faultnet.Plan{})
	_, addr := slowDaemon(t, ion.Config{ID: "ion0", Scheduler: agios.NewFIFO(), DedupWindow: 64}, store, inj)
	payload := bytes.Repeat([]byte{5}, 300)
	if _, err := store.Write("/r", 0, payload); err != nil {
		t.Fatal(err)
	}
	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: 512, Dedup: true,
		RPC:     rpc.Options{CallTimeout: 10 * time.Second, BreakerThreshold: 1, BreakerCooldown: time.Minute},
		Hedge:   HedgeConfig{Enabled: true, Pct: 0.5, Budget: 1},
		Latency: sk, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})
	seedLatency(sk, addr, 2*time.Millisecond)
	g := c.gateFor(addr)
	g.mu.Lock()
	g.fails, g.until = 1, time.Time{} // open, cool-down passed: the next call is the probe
	g.mu.Unlock()

	// The daemon stalls the probe; the direct-PFS hedge wins and
	// interrupts it.
	inj.Set(faultnet.Plan{Kind: faultnet.Slow, Delay: 2 * time.Second})
	buf := make([]byte, len(payload))
	if n, err := c.Read("/r", 0, buf); err != nil || n != len(payload) {
		t.Fatalf("hedged probe read: n=%d err=%v", n, err)
	}
	inj.Set(faultnet.Plan{})
	if got := reg.Counter(`fwd_hedge_wins_total{app="app"}`).Value(); got != 1 {
		t.Fatalf("fwd_hedge_wins_total = %d, want 1", got)
	}
	g.mu.Lock()
	probing, fails := g.probing, g.fails
	g.mu.Unlock()
	if probing || fails != 1 || reg.Counter("rpc_breaker_open_total").Value() != 0 {
		t.Fatalf("after an abandoned probe: probing %v, transport streak %d, opens %d; want the slot back, 1, 0",
			probing, fails, reg.Counter("rpc_breaker_open_total").Value())
	}
	if n, err := c.Read("/r", 0, buf); err != nil || n != len(payload) {
		t.Fatalf("the next read, the probe: n=%d err=%v", n, err)
	}
	for name, want := range map[string]int64{"rpc_breaker_half_open_probes_total": 2, "rpc_breaker_close_total": 1} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestGateLateAnswerEndsCoolDown: a call admitted before the gate opened
// for transport failures answers inside the cool-down. The answer closes
// the gate, and the next caller goes at once — the cool-down was the open
// gate's, not a pacing interval for the calls after it.
func TestGateLateAnswerEndsCoolDown(t *testing.T) {
	g, _ := clockedGate(ThrottleConfig{}, rpc.Options{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	admit(t, g) // fails
	admit(t, g) // answers late
	g.release(verdictUnreachable, false, 0)
	if _, err := g.acquire(0); err != errCircuitOpen {
		t.Fatalf("open gate: %v, want errCircuitOpen", err)
	}
	g.release(verdictTook, false, 0)
	g.mu.Lock()
	fails, until := g.fails, g.until
	g.mu.Unlock()
	if fails != 0 || g.pol.closes.Value() != 1 || !until.IsZero() {
		t.Fatalf("after the late answer: transport streak %d, closes %d, until %v; want 0, 1, none", fails, g.pol.closes.Value(), until)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if probe, err := g.acquire(0); probe || err != nil {
			t.Errorf("after the late answer: acquire = probe %v, %v; want a plain admission", probe, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the call after the late answer waited out the cool-down")
	}
}

// TestRetryBackoffPacesOnlyTheRetryingCaller: a transport failure below
// the threshold leaves the gate unpaced — another caller is admitted while
// the one re-sending still waits its backoff in acquire — and an open gate
// refuses a re-send at once, without making it wait the backoff first.
func TestRetryBackoffPacesOnlyTheRetryingCaller(t *testing.T) {
	const backoff = 200 * time.Millisecond
	g, now := clockedGate(ThrottleConfig{}, rpc.Options{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	g.now = time.Now
	admit(t, g)
	g.release(verdictUnreachable, false, 0)

	began := time.Now()
	resent := make(chan struct{})
	go func() {
		defer close(resent)
		if probe, err := g.acquire(backoff); probe || err != nil {
			t.Errorf("re-send: acquire = probe %v, %v; want a plain admission", probe, err)
		}
		if took := time.Since(began); took < backoff {
			t.Errorf("the re-send was admitted after %v, before its %v backoff", took, backoff)
		}
	}()
	admit(t, g) // another caller: no wait
	select {
	case <-resent:
		t.Fatal("the other caller waited out the re-sending caller's backoff")
	default:
	}
	<-resent
	g.release(verdictUnreachable, false, 0) // the re-send fails too: the gate opens
	g.release(verdictTook, false, 0)        // the other caller's answer closes it

	// Open it again, on a clock that stands still inside the cool-down.
	g.now = func() time.Time { return *now }
	admit(t, g)
	g.release(verdictUnreachable, false, 0)
	admit(t, g)
	g.release(verdictUnreachable, false, 0)
	refused := make(chan error, 1)
	go func() {
		_, err := g.acquire(time.Hour)
		refused <- err
	}()
	select {
	case err := <-refused:
		if err != errCircuitOpen {
			t.Fatalf("re-send to an open gate: %v, want errCircuitOpen", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a re-send to an open gate waited its backoff before the refusal")
	}
}
