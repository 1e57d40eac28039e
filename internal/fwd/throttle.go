// The per-I/O-node gate: the one place a call's outcome opens, probes and
// closes a node. Every target holds one, and callION hands it the verdict
// classRules gives each attempt — took, shed, unreachable or none. Two
// streaks feed one closed → open → half-open cycle:
//
//   - sheds (busy answers): with Throttle.Enabled, degradeAfter in a row
//     open the gate until the paced hint passes; a refused call is shed
//     (errSaturated) and its chunk degrades to the direct PFS path. The
//     throttle also keeps an AIMD admission window — additive increase on
//     success, multiplicative decrease on a shed — so a bursty
//     application backs off the moment a daemon starts shedding.
//   - transport failures (one per unreachable attempt): RPC.BreakerThreshold
//     of them open the gate for RPC.BreakerCooldown; a refused call is
//     unreachable (errCircuitOpen) and fails over.
//
// Once an open gate's time passes it admits exactly one probe; the probe's
// verdict closes or re-opens it, and a probe without one hands the slot
// back. A shed resets the transport streak (the node answered); a
// transport failure keeps the shed streak. Whatever is armed, a shed
// paces every later call to the node behind the server's retry-after
// hint, grown with the streak and jittered; a transport failure paces
// only the caller that re-sends, behind its own backoff.
package fwd

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// ThrottleConfig parameterizes per-ION adaptive admission. The zero value
// leaves the gate's shed half unarmed: no window, no degrade — busy
// replies are only paced.
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
	// retryBackoff is the wait before the first transport re-send.
	// retryAfterCap bounds the exponential growth of both (backoff).
	retryAfterFloor = time.Millisecond
	retryBackoff    = 2 * time.Millisecond
	retryAfterCap   = 100 * time.Millisecond
	// idleRecovery restores a shrunken window to MaxWindow when the gate
	// has been idle (no acquire) for at least this long: the AIMD growth
	// path only runs on successes, so without it a window halved during a
	// burst stays pinned small across an idle gap — the saturation
	// evidence is stale long before the next burst arrives.
	idleRecovery = 30 * time.Second
	// defaultCooldown is how long transport failures hold a gate open
	// when RPC.BreakerCooldown is unset.
	defaultCooldown = time.Second
)

// What a call refused by an open gate gets: the shed half's is a shed
// decided on this side of the wire, the transport half's an unreachable
// node.
var (
	errSaturated   = &rpc.Error{Class: rpc.ClassBusy, Err: errors.New("fwd: I/O node saturated")}
	errCircuitOpen = &rpc.Error{Class: rpc.ClassUnavailable, Err: rpc.ErrCircuitOpen}
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

// verdict is what a call tells the gate about its node (classRules'
// verdict column).
type verdict uint8

const (
	verdictNone        verdict = iota // local, closed, interrupted: nothing about the node
	verdictTook                       // ok, app, fenced: the node took the request on
	verdictShed                       // busy: the node answered, and refused
	verdictUnreachable                // unavailable: the attempt failed in transport
)

// gatePolicy is what every gate of one client shares: what arms each half,
// and the counters the transport half moves.
type gatePolicy struct {
	throttle  ThrottleConfig
	threshold int           // transport failures that open a gate; 0 = never
	cooldown  time.Duration // how long they hold it open

	opens, probes, closes, rejects *telemetry.Counter
}

func newGatePolicy(cfg Config, reg *telemetry.Registry) gatePolicy {
	p := gatePolicy{
		throttle:  cfg.Throttle,
		threshold: cfg.RPC.BreakerThreshold,
		cooldown:  cfg.RPC.BreakerCooldown,
		opens:     reg.Counter("rpc_breaker_open_total"),
		probes:    reg.Counter("rpc_breaker_half_open_probes_total"),
		closes:    reg.Counter("rpc_breaker_close_total"),
		rejects:   reg.Counter("rpc_breaker_rejected_total"),
	}
	if p.cooldown <= 0 {
		p.cooldown = defaultCooldown
	}
	return p
}

// ionGate is the per-I/O-node state. All fields below mu are guarded by
// it; with the throttle armed, acquire blocks callers while the in-flight
// count fills the window, so the gate is also the client's local queue —
// backpressure surfaces to the application as write latency, not as lost
// requests.
type ionGate struct {
	pol       *gatePolicy
	now       func() time.Time // clock seam; time.Now outside tests
	telWindow *telemetry.Gauge // window ×1000; nil unless the throttle is armed

	mu       sync.Mutex
	cond     sync.Cond
	window   float64 // fractional AIMD window; int floor admits
	inflight int
	sheds    int       // consecutive sheds; reset by a call the node took
	fails    int       // consecutive transport failures; reset by any answer
	until    time.Time // no call leaves before it: pacing behind a shed, or an open gate's time
	probing  bool      // an open gate's one probe is out
	lastUse  time.Time // last acquire; zero until the first one
}

// init readies a gate in place (a target holds its gate by value).
func (g *ionGate) init(pol *gatePolicy, window *telemetry.Gauge) {
	g.pol, g.now, g.telWindow = pol, time.Now, window
	g.cond.L = &g.mu
	g.window = float64(pol.throttle.MaxWindow)
	g.publishWindow()
}

// publishWindow mirrors the fractional window into its gauge (×1000 so
// sub-integer motion is visible). Caller holds mu.
func (g *ionGate) publishWindow() {
	g.telWindow.Set(int64(g.window * 1000))
}

// admitted returns the integer admission width. Caller holds mu.
func (g *ionGate) admitted() int {
	return max(int(g.window), g.pol.throttle.MinWindow)
}

// refusal is the error an open gate refuses calls with — the transport
// half's first, a failover outranks a degrade — or nil while the gate is
// closed. Caller holds mu.
func (g *ionGate) refusal() error {
	switch {
	case g.pol.threshold > 0 && g.fails >= g.pol.threshold:
		return errCircuitOpen
	case g.pol.throttle.Enabled && g.sheds >= degradeAfter:
		return errSaturated
	}
	return nil
}

// acquire admits one call or refuses it with the open gate's error. An
// open gate admits nobody until its time passes, then exactly one probe
// (probe reports that this call is it). A closed gate paces callers
// behind the last shed's hint and, with the throttle armed, blocks them
// while the window is full. A caller re-sending after a transport failure
// waits its own backoff here too, once the open gate has had its say:
// nobody else waits for it. Every admitted call must be released.
func (g *ionGate) acquire(backoff time.Duration) (probe bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	if g.pol.throttle.Enabled && !g.lastUse.IsZero() && now.Sub(g.lastUse) >= idleRecovery &&
		g.window < float64(g.pol.throttle.MaxWindow) {
		// Idle recovery: the multiplicative decrease is evidence of
		// saturation *at the time of the burst*. After a long idle gap
		// that evidence is stale — and since the window only grows on
		// successes, a gate left small would start the next burst pinned
		// at the floor forever. Reopen the shed half to its initial
		// posture and let fresh evidence speak.
		g.window = float64(g.pol.throttle.MaxWindow)
		g.sheds = 0
		if g.refusal() == nil {
			g.until = time.Time{}
		}
		g.publishWindow()
	}
	g.lastUse = now
	for {
		err = g.refusal()
		if err != nil && (g.probing || now.Before(g.until)) {
			if err == errCircuitOpen {
				g.pol.rejects.Inc()
			}
			return false, err
		}
		if g.pol.throttle.Enabled && g.inflight >= g.admitted() {
			g.cond.Wait()
		} else if wait := max(g.until.Sub(now), backoff); err == nil && wait > 0 {
			// Pace behind the hint and the backoff without holding the
			// lock, then re-evaluate (another caller may have shed, or the
			// gate opened, meanwhile).
			g.mu.Unlock()
			time.Sleep(wait)
			g.mu.Lock()
			backoff = 0
		} else {
			break
		}
		now = g.now()
	}
	g.inflight++
	if err == errCircuitOpen {
		g.pol.probes.Inc()
	}
	g.probing = err != nil
	return g.probing, nil
}

// release ends an admitted call with its verdict. hint is a shed's
// retry-after hint.
func (g *ionGate) release(v verdict, probe bool, hint time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	g.cond.Broadcast()
	if probe {
		// The probe's verdict decides: a took closes the gate, a shed or
		// a transport failure re-opens it, and none hands the slot back.
		g.probing = false
	}
	if v == verdictNone {
		return
	}
	if v != verdictUnreachable {
		// The node answered. A gate open for transport failures closes,
		// and its cool-down goes with it: a call admitted before it opened
		// may answer inside it, and the cool-down must not pace the calls
		// after.
		if g.refusal() == errCircuitOpen {
			g.pol.closes.Inc()
			g.until = time.Time{}
		}
		g.fails = 0
	}
	armed := g.pol.throttle.Enabled
	switch v {
	case verdictTook:
		g.sheds = 0
		if armed && g.window < float64(g.pol.throttle.MaxWindow) {
			// Classic AIMD: +1/window per success, so one full window of
			// successes grows the admission width by one.
			g.window = min(g.window+1/g.window, float64(g.pol.throttle.MaxWindow))
		}
	case verdictShed:
		g.sheds++
		if armed {
			g.window = max(g.window/2, float64(g.pol.throttle.MinWindow))
		}
		// Pace from the server's hint, grown with the streak.
		g.until = g.now().Add(backoff(max(hint, retryAfterFloor), g.sheds-1))
	case verdictUnreachable:
		wasOpen := g.refusal() == errCircuitOpen
		g.fails++
		if g.refusal() == errCircuitOpen && (probe || !wasOpen) {
			g.pol.opens.Inc()
			g.until = g.now().Add(g.pol.cooldown)
		}
	}
	if armed {
		g.publishWindow()
	}
}

// backoff is the wait before a re-send: d (at least 2ns) doubled once for
// each of the n re-sends of its streak before this one, capped at
// retryAfterCap, and spread over [d/2, d) — half fixed, half uniform, so
// clients that failed together do not re-send in lockstep. It paces a shed
// for every caller of the node (release) and a transport re-send for its
// own caller (callION).
func backoff(d time.Duration, n int) time.Duration {
	for ; n > 0 && d < retryAfterCap; n-- {
		d *= 2
	}
	half := int64(min(d, retryAfterCap)) / 2
	return time.Duration(half + rand.Int63n(half))
}
