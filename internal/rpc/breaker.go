// Failure tolerance for the rpc client. Three mechanisms compose, all
// opt-in via Options so the zero value preserves the original transport
// behavior exactly:
//
//   - per-call deadlines: every request/response exchange carries a wire
//     deadline (SetDeadline on the conn), so a hung daemon costs a bounded
//     wait instead of blocking the caller forever;
//   - bounded retries: transport-level failures (dial errors, broken or
//     timed-out exchanges) are retried with exponential backoff and equal
//     jitter — every operation in this protocol is idempotent (writes carry
//     absolute offsets), so replaying a request is always safe;
//   - a per-address circuit breaker: after BreakerThreshold consecutive
//     transport failures the breaker opens and calls fail fast with
//     ErrCircuitOpen until BreakerCooldown elapses, at which point a single
//     half-open probe is let through; its outcome closes or re-opens the
//     breaker.
//
// Application-level errors (the server responded, resp.Err non-empty) prove
// the server alive: they are never retried and never trip the breaker.
package rpc

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Errors surfaced by the failure-tolerance layer. Transport-level call
// failures end as ClassUnavailable so the forwarding client can
// distinguish "this I/O node is unreachable" (degrade to direct PFS
// access) from application errors that must surface to the caller.
var (
	// ErrUnavailable matches every ClassUnavailable error: dial errors,
	// broken or timed-out exchanges, and breaker rejections.
	ErrUnavailable = errors.New("rpc: server unavailable")
	// ErrCircuitOpen is the cause of the ClassUnavailable error a call gets
	// when the circuit breaker rejects it without touching the network.
	ErrCircuitOpen = errors.New("rpc: circuit open")
)

// Options configures the client's failure tolerance. The zero value keeps
// the historical behavior: no deadline, no retry beyond the stale-conn
// retry, no breaker.
type Options struct {
	// CallTimeout bounds one request/response exchange on the wire (and
	// the dial that may precede it). ≤0 means no deadline.
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first for
	// transport-level failures, each after a jittered backoff that doubles
	// from retryBackoff up to retryBackoffMax. 0 disables retries.
	MaxRetries int
	// BreakerThreshold is the number of consecutive transport failures
	// that opens the circuit. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing
	// one half-open probe. ≤0 selects 1s when the breaker is on.
	BreakerCooldown time.Duration
	// WireChecksum appends a CRC32C trailer to every frame this client
	// sends. Inbound frames are verified whenever they carry a trailer,
	// regardless of this setting; a mismatch is a transport failure
	// (connection discarded, retries and breaker apply). Off by default:
	// the zero value is wire-identical to protocol version 1.
	WireChecksum bool
}

// The transport-retry backoff: the first retry waits about retryBackoff,
// each later one twice the one before, never more than retryBackoffMax.
const (
	retryBackoff    = 2 * time.Millisecond
	retryBackoffMax = 100 * time.Millisecond
)

// withDefaults fills the derived defaults for enabled mechanisms.
func (o Options) withDefaults() Options {
	if o.BreakerThreshold > 0 && o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	return o
}

// backoffDelay returns the sleep before retry attempt i (0-based):
// exponential growth from retryBackoff, capped at retryBackoffMax, with
// equal jitter (half fixed, half uniformly random).
func backoffDelay(attempt int) time.Duration {
	d := retryBackoff
	for i := 0; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	d = min(d, retryBackoffMax)
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// BreakerState is the circuit breaker's externally visible state.
type BreakerState int

// Breaker states: closed (calls pass), open (calls fail fast), half-open
// (one probe in flight decides).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is the per-address circuit state machine. It is pure state: the
// client translates its transition results into telemetry counters.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    BreakerState
	fails    int // consecutive transport failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a call may proceed and whether it is the half-open
// probe. When it returns ok=false the caller must fail fast.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	default: // BreakerHalfOpen
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// onSuccess records a successful exchange; it reports whether the breaker
// transitioned half-open → closed.
func (b *breaker) onSuccess() (closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	closed = b.state == BreakerHalfOpen
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
	return closed
}

// onFailure records a transport failure; it reports whether the breaker
// transitioned to open.
func (b *breaker) onFailure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.probing = false
		return true
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// abandonProbe withdraws a half-open probe that ended without a verdict
// (the call never reached the wire, or its caller interrupted it): the
// breaker stays half-open and the next call is the probe.
func (b *breaker) abandonProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// current returns the state for observation (half-open is reported even if
// the probe has not been issued yet, i.e. cooldown elapsed counts as open).
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
