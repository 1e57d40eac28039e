// Overload protection for the rpc layer. Two halves compose:
//
//   - a server-side admission limit (ServerLimits): a cap on in-flight
//     requests. Above it the server answers with a typed *busy* response —
//     a shed — carrying a retry-after hint, instead of queueing unbounded
//     work behind the handler. The response comes from the message pool,
//     so a shed costs the overloaded server no allocation;
//   - client-side classification: a busy response is an *Error of
//     ClassBusy carrying the hint. It is deliberately neither a transport
//     failure (the exchange completed; the server is provably alive, so it
//     must never burn transport retries or open a circuit) nor an
//     application error (the request was never attempted, so replaying it
//     later is the right reaction, which the fwd layer's adaptive throttle
//     does).
//
// The cap is opt-in: the zero ServerLimits preserves the historical
// handle-everything behavior exactly.
package rpc

import (
	"errors"
	"time"
)

// ErrBusy matches (errors.Is) a call the server shed.
var ErrBusy = errors.New("rpc: server busy")

// ServerLimits bounds a server's concurrent work. The zero value keeps the
// historical behavior: every request handled.
type ServerLimits struct {
	// MaxInflight caps requests concurrently inside the handler; a request
	// arriving above the cap is answered with a busy response instead of
	// being dispatched. ≤0 means unlimited.
	MaxInflight int
	// RetryAfter is the hint attached to in-flight-cap busy responses;
	// ≤0 selects 2ms.
	RetryAfter time.Duration
}

// withDefaults fills derived defaults for enabled limits.
func (l ServerLimits) withDefaults() ServerLimits {
	if l.MaxInflight > 0 && l.RetryAfter <= 0 {
		l.RetryAfter = 2 * time.Millisecond
	}
	return l
}

// busyResponse builds the shed response for req in a pooled envelope, which
// the server releases once it is written: same op and trace (so the
// client's matching and tracing still line up), busy flag set, hint
// attached.
func busyResponse(req *Message, retryAfter time.Duration) *Message {
	resp := GetMessage()
	resp.Op, resp.Path, resp.Trace = req.Op, req.Path, req.Trace
	resp.Busy, resp.RetryAfter = true, retryAfter
	return resp
}
