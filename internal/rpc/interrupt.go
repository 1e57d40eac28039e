package rpc

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInterrupted matches the ClassInterrupted error CallInterruptible
// returns once its Interrupt has fired. It is deliberately not
// ClassUnavailable: the server did nothing wrong, the caller stopped waiting.
var ErrInterrupted = errors.New("rpc: call interrupted")

// Interrupt lets another goroutine abandon a CallInterruptible that is
// blocked on the wire — a caller running a request inline cannot be
// overtaken through a channel, so the goroutine that no longer needs the
// answer expires the deadline of the conn the call is using. The zero
// value is ready; an Interrupt serves one logical call (which may span
// several exchanges: transport and busy retries) and stays fired.
type Interrupt struct {
	mu    sync.Mutex
	fired bool
	conn  net.Conn // the conn the call is exchanging on, nil between exchanges
}

// aLongTimeAgo is a deadline that has certainly passed: conn I/O blocked on
// it (or started after it) fails at once with a timeout.
var aLongTimeAgo = time.Unix(1, 0)

// Fire abandons the call: an exchange in progress fails now, and every
// exchange the call would start later fails before touching the wire.
// Firing after the call returned does nothing — its conn is already
// unbound, so a pooled conn is never poisoned. Safe to call more than once
// and from any goroutine.
func (it *Interrupt) Fire() {
	it.mu.Lock()
	it.fired = true
	if it.conn != nil {
		// A failed SetDeadline means the conn is already closed, which
		// unblocks the exchange just the same.
		_ = it.conn.SetDeadline(aLongTimeAgo)
	}
	it.mu.Unlock()
}

// bind attaches conn for one exchange; false means Fire already ran and
// the exchange must not start. A nil Interrupt always binds.
func (it *Interrupt) bind(conn net.Conn) bool {
	if it == nil {
		return true
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.fired {
		return false
	}
	it.conn = conn
	return true
}

// unbind detaches the conn and reports whether Fire ran while it was bound
// — in which case the conn's deadline is poisoned and the exchange's
// outcome, whatever it was, is void.
func (it *Interrupt) unbind() bool {
	if it == nil {
		return false
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	it.conn = nil
	return it.fired
}
