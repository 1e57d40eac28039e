// Failure tolerance for the rpc client. A call is one attempt, bounded by
// a per-call deadline: every request/response exchange carries a wire
// deadline (SetDeadline on the conn), so a hung daemon costs a bounded wait
// instead of blocking the caller forever. The zero Options keep the
// original transport behavior exactly.
//
// Whether a call that failed is sent again, and whether a server that keeps
// failing is offered calls at all, is the caller's judgement: the
// forwarding client (fwd) re-sends through its per-node gate and reads
// MaxRetries, BreakerThreshold and BreakerCooldown for it. Every operation
// in this protocol is idempotent (writes carry absolute offsets), so
// replaying a request is always safe.
package rpc

import (
	"errors"
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
// the historical behavior: no deadline, no re-send beyond the stale-conn
// re-dial, no circuit.
type Options struct {
	// CallTimeout bounds one request/response exchange on the wire,
	// counted from the start of the call — the wait for a pooled conn and
	// the dial that may precede the exchange included (a stale-conn
	// re-dial's exchange counts from its own start). ≤0 means no deadline.
	CallTimeout time.Duration
	// MaxRetries is how many times a call that failed in transport is
	// sent again, each after a jittered backoff. 0 disables re-sends. The
	// client does not read it: fwd's re-send loop does.
	MaxRetries int
	// BreakerThreshold is the number of consecutive transport failures —
	// one per failed attempt — that opens the circuit. 0 means it never
	// opens. Read by fwd's per-node gate, like MaxRetries.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses calls before it
	// lets one half-open probe through. ≤0 selects 1s. Read by fwd's
	// per-node gate, like BreakerThreshold.
	BreakerCooldown time.Duration
	// WireChecksum appends a CRC32C trailer to every frame this client
	// sends. Inbound frames are verified whenever they carry a trailer,
	// regardless of this setting; a mismatch is a transport failure
	// (connection discarded, the call ends unavailable). Off by default:
	// the zero value is wire-identical to protocol version 1.
	WireChecksum bool
}
