package rpc

import (
	"errors"
	"fmt"
	"time"
)

// Class is how a call ended. Client.attempt decides it once per pass, where
// the reply (or its absence) is read, and Client.call acts on it once; the
// forwarding layer maps it to an outcome by table and never looks at the
// error again.
type Class uint8

// The classes up to ClassFenced are answers: the server is alive, whatever
// it said. Local, closed and interrupted say nothing about the server.
const (
	ClassOK          Class = iota // success: Call returns no error
	ClassApp                      // an application error, the server's Message.Err
	ClassBusy                     // shed before it was handled; RetryAfter is the server's hint
	ClassFenced                   // a write under a revoked epoch, refused before the backend; Fence is the floor
	ClassLocal                    // the request cannot be framed: nothing touched the wire
	ClassClosed                   // the client was closed before or under the call
	ClassInterrupted              // the caller's Interrupt fired
	ClassUnavailable              // transport failures outlasted the retries, or a caller's open circuit refused the call
)

// sentinels is each class's errors.Is identity (none for ok, app, local).
var sentinels = [...]error{
	ClassBusy:        ErrBusy,
	ClassFenced:      ErrStaleEpoch,
	ClassClosed:      ErrClosed,
	ClassInterrupted: ErrInterrupted,
	ClassUnavailable: ErrUnavailable,
}

// Error is every error Call returns: the class the call ended in and what
// the server or the transport said.
type Error struct {
	Class      Class
	Addr       string        // the server called
	RetryAfter time.Duration // a busy server's hint for when to try again (0 = none)
	Fence      uint64        // a fencing server's floor, the lowest epoch it still accepts
	// Err is the cause: the server's text (app, fenced), the validation
	// error (local), the last transport error or ErrCircuitOpen
	// (unavailable); nil for busy, closed and interrupted.
	Err error
}

// ClassOf returns the class of an error Call returned: ClassOK for nil, and
// ClassApp for an error rpc did not produce — somebody's answer, not a
// verdict on the transport.
func ClassOf(err error) Class {
	if err == nil {
		return ClassOK // before e: declaring it costs the success path an allocation
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Class
	}
	return ClassApp
}

// Is makes errors.Is match the class's sentinel.
func (e *Error) Is(target error) bool { return target == sentinels[e.Class] }

// Unwrap exposes the cause, so ErrCircuitOpen, ErrFrameTooLarge or a net
// error stay matchable.
func (e *Error) Unwrap() error { return e.Err }

// Error renders an answer as the server's own text (an application error
// reads exactly as the server wrote it) and everything else as its
// sentinel, the address and the cause.
func (e *Error) Error() string {
	switch {
	case e.Class == ClassApp || e.Class == ClassLocal:
		return e.Err.Error()
	case e.Class == ClassFenced:
		return fmt.Sprintf("%v at %s", e.Err, e.Addr)
	case e.Class == ClassBusy && e.RetryAfter > 0:
		return fmt.Sprintf("%v: %s (retry after %v)", ErrBusy, e.Addr, e.RetryAfter)
	case e.Err == nil:
		return fmt.Sprintf("%v: %s", sentinels[e.Class], e.Addr)
	}
	return fmt.Sprintf("%v: %s: %v", sentinels[e.Class], e.Addr, e.Err)
}
