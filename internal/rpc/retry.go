// Failure tolerance for the rpc client. Two mechanisms compose, both
// opt-in via Options so the zero value preserves the original transport
// behavior exactly:
//
//   - per-call deadlines: every request/response exchange carries a wire
//     deadline (SetDeadline on the conn), so a hung daemon costs a bounded
//     wait instead of blocking the caller forever;
//   - bounded retries: transport-level failures (dial errors, broken or
//     timed-out exchanges) are retried with exponential backoff and equal
//     jitter — every operation in this protocol is idempotent (writes carry
//     absolute offsets), so replaying a request is always safe.
//
// Application-level errors (the server responded, resp.Err non-empty) prove
// the server alive: they are never retried. Whether a server that keeps
// failing should be offered calls at all is the caller's judgement: the
// forwarding client's per-node gate (fwd) reads BreakerThreshold and
// BreakerCooldown and refuses calls with ErrCircuitOpen while it is open.
package rpc

import (
	"errors"
	"math/rand"
	"time"
)

// Errors surfaced by the failure-tolerance layer. Transport-level call
// failures end as ClassUnavailable so the forwarding client can
// distinguish "this I/O node is unreachable" (degrade to direct PFS
// access) from application errors that must surface to the caller.
var (
	// ErrUnavailable matches every ClassUnavailable error: dial errors,
	// broken or timed-out exchanges, and calls an open circuit refused.
	ErrUnavailable = errors.New("rpc: server unavailable")
	// ErrCircuitOpen is the cause of the ClassUnavailable error a caller's
	// open circuit (fwd's per-node gate) refuses a call with, before it
	// touches the network.
	ErrCircuitOpen = errors.New("rpc: circuit open")
)

// Options configures the client's failure tolerance. The zero value keeps
// the historical behavior: no deadline, no retry beyond the stale-conn
// retry, no circuit.
type Options struct {
	// CallTimeout bounds one request/response exchange on the wire (and
	// the dial that may precede it). ≤0 means no deadline.
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first for
	// transport-level failures, each after a jittered backoff that doubles
	// from retryBackoff up to retryBackoffMax. 0 disables retries.
	MaxRetries int
	// BreakerThreshold is the number of consecutive transport failures —
	// each unreachable call counts 1+MaxRetries, one per attempt — that
	// opens the circuit. 0 means it never opens. The client does not read
	// it: fwd's per-node gate does.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses calls before it
	// lets one half-open probe through. ≤0 selects 1s. Read by fwd's
	// per-node gate, like BreakerThreshold.
	BreakerCooldown time.Duration
	// WireChecksum appends a CRC32C trailer to every frame this client
	// sends. Inbound frames are verified whenever they carry a trailer,
	// regardless of this setting; a mismatch is a transport failure
	// (connection discarded, retries apply). Off by default:
	// the zero value is wire-identical to protocol version 1.
	WireChecksum bool
}

// The transport-retry backoff: the first retry waits about retryBackoff,
// each later one twice the one before, never more than retryBackoffMax.
const (
	retryBackoff    = 2 * time.Millisecond
	retryBackoffMax = 100 * time.Millisecond
)

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
