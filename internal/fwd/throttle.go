// Adaptive client-side throttling: the compute-node half of the overload
// protection path. Each I/O node gets an AIMD admission window on the
// client — additive increase on success, multiplicative decrease on a busy
// (shed) response — so a bursty application backs off the moment a daemon
// starts shedding, instead of hammering it with retries. Busy retries are
// paced by the server's retry-after hint with equal jitter; under
// *sustained* saturation (degradeAfter consecutive sheds) chunks degrade
// to the direct PFS path, and a breaker-style probe after the pacing
// interval lets the window reopen once the daemon drains.
package fwd

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ThrottleConfig parameterizes per-ION adaptive admission. The zero value
// disables throttling entirely: calls pass straight through, preserving
// the historical client behavior byte for byte.
type ThrottleConfig struct {
	// Enabled turns the AIMD window on. A gate starts at MaxWindow
	// (optimistic, shrinking on evidence).
	Enabled bool
	// MinWindow is the floor the window shrinks to; ≤0 selects 1.
	MinWindow int
	// MaxWindow is the ceiling the window recovers to; ≤0 selects 32.
	MaxWindow int
}

// The gate's fixed tuning.
const (
	// degradeAfter consecutive busy responses from one I/O node mark it
	// saturated: chunks then degrade immediately, without waiting out the
	// pacing interval, until a probe succeeds.
	degradeAfter = 4
	// retryAfterFloor stands in for a missing or zero server hint, and
	// retryAfterCap bounds the hint's exponential growth under repeated
	// sheds.
	retryAfterFloor = time.Millisecond
	retryAfterCap   = 100 * time.Millisecond
	// idleRecovery restores a shrunken window to MaxWindow when the gate
	// has been idle (no acquire) for at least this long: the AIMD growth
	// path only runs on successes, so without it a window halved during a
	// burst stays pinned small across an idle gap — the saturation
	// evidence is stale long before the next burst arrives.
	idleRecovery = 30 * time.Second
)

// withDefaults fills the derived defaults when throttling is enabled.
func (t ThrottleConfig) withDefaults() ThrottleConfig {
	if !t.Enabled {
		return t
	}
	if t.MinWindow <= 0 {
		t.MinWindow = 1
	}
	if t.MaxWindow < t.MinWindow {
		t.MaxWindow = 32
		if t.MaxWindow < t.MinWindow {
			t.MaxWindow = t.MinWindow
		}
	}
	return t
}

// ionGate is the per-I/O-node AIMD state. All fields are guarded by mu;
// acquire blocks callers while the in-flight count fills the window, so
// the gate is also the client's local queue — backpressure surfaces to
// the application as write latency, not as lost requests.
type ionGate struct {
	cfg ThrottleConfig
	now func() time.Time // clock seam; time.Now outside tests

	mu         sync.Mutex
	cond       *sync.Cond
	window     float64 // fractional AIMD window; int floor admits
	inflight   int
	consecBusy int       // consecutive sheds; resets on any success
	retryUntil time.Time // pacing gate from the last shed's hint
	lastUse    time.Time // last acquire; zero until the first one

	telWindow *telemetry.Gauge // window ×1000, for observability
}

func newIonGate(cfg ThrottleConfig, telWindow *telemetry.Gauge) *ionGate {
	g := &ionGate{cfg: cfg, now: time.Now, window: float64(cfg.MaxWindow), telWindow: telWindow}
	g.cond = sync.NewCond(&g.mu)
	g.publishWindow()
	return g
}

// publishWindow mirrors the fractional window into its gauge (×1000 so
// sub-integer motion is visible). Caller holds mu.
func (g *ionGate) publishWindow() {
	g.telWindow.Set(int64(g.window * 1000))
}

// admitted returns the integer admission width. Caller holds mu.
func (g *ionGate) admitted() int {
	w := int(g.window)
	if w < g.cfg.MinWindow {
		w = g.cfg.MinWindow
	}
	return w
}

// acquire takes one in-flight slot, blocking while the window is full and
// pacing behind the last shed's retry-after hint. It returns false — do
// not send, degrade to the direct path — when the node is saturated
// (degradeAfter consecutive sheds) and the pacing interval has not yet
// passed; once it passes, one caller is admitted as the probe that decides
// whether the window reopens.
func (g *ionGate) acquire() bool {
	g.mu.Lock()
	now := g.now()
	if !g.lastUse.IsZero() && now.Sub(g.lastUse) >= idleRecovery &&
		g.window < float64(g.cfg.MaxWindow) {
		// Idle recovery: the multiplicative decrease is evidence of
		// saturation *at the time of the burst*. After a long idle gap
		// that evidence is stale — and since the window only grows on
		// successes, a gate left small would start the next burst pinned
		// at the floor forever. Reopen to the initial posture and let
		// fresh evidence speak.
		g.window = float64(g.cfg.MaxWindow)
		g.consecBusy = 0
		g.retryUntil = time.Time{}
		g.publishWindow()
	}
	g.lastUse = now
	for {
		if g.consecBusy >= degradeAfter && g.now().Before(g.retryUntil) {
			g.mu.Unlock()
			return false
		}
		if g.inflight < g.admitted() {
			if wait := g.retryUntil.Sub(g.now()); wait > 0 {
				// Pace behind the hint without holding the lock, then
				// re-evaluate (another caller may have shed meanwhile).
				g.mu.Unlock()
				time.Sleep(wait)
				g.mu.Lock()
				continue
			}
			g.inflight++
			g.mu.Unlock()
			return true
		}
		g.cond.Wait()
	}
}

// onSuccess releases the slot and grows the window additively (classic
// AIMD: +1/window per success, so one full window of successes grows the
// admission width by one).
func (g *ionGate) onSuccess() {
	g.mu.Lock()
	g.inflight--
	g.consecBusy = 0
	if g.window < float64(g.cfg.MaxWindow) {
		g.window += 1 / g.window
		if g.window > float64(g.cfg.MaxWindow) {
			g.window = float64(g.cfg.MaxWindow)
		}
	}
	g.publishWindow()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// onBusy releases the slot, halves the window, and arms the pacing gate
// from the server's hint — grown exponentially with consecutive sheds
// (capped) and jittered so a fleet of clients does not retry in lockstep.
func (g *ionGate) onBusy(hint time.Duration) {
	g.mu.Lock()
	g.inflight--
	g.consecBusy++
	g.window /= 2
	if g.window < float64(g.cfg.MinWindow) {
		g.window = float64(g.cfg.MinWindow)
	}
	d := hint
	if d <= 0 {
		d = retryAfterFloor
	}
	for i := 1; i < g.consecBusy && d < retryAfterCap; i++ {
		d *= 2
	}
	d = min(d, retryAfterCap)
	g.retryUntil = g.now().Add(equalJitter(d))
	g.publishWindow()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// onError releases the slot without touching the window: transport
// failures are the circuit breaker's and failover path's concern, not the
// throttle's.
func (g *ionGate) onError() {
	g.mu.Lock()
	g.inflight--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// saturated reports whether the gate is currently degrading chunks.
func (g *ionGate) saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.consecBusy >= degradeAfter && g.now().Before(g.retryUntil)
}

// equalJitter spreads d over [d/2, d): half deterministic, half uniform —
// the same shape the rpc retry backoff uses.
func equalJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half))
}
