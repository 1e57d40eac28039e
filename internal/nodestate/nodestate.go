// Package nodestate is the one model of an I/O node's condition that the
// control plane shares: the health prober debounces probes into its
// events, the arbiter folds those events into per-node state and reacts,
// and its journal replay runs them through the same function — so "what
// happens to a node in state S on event E" is decided here, once. The
// package imports nothing from the repository.
package nodestate

import (
	"errors"
	"strings"
)

// State is the set of conditions one node is in; the zero State is a
// healthy, allocatable node. Bit values are written into journal
// snapshots: append only, never renumber.
type State uint8

const (
	// Down: a liveness probe found the node unreachable.
	Down State = 1 << iota
	// Draining: the node is leaving the pool gracefully; it keeps serving
	// what is in flight and is handed nothing new.
	Draining
	// Degraded: the node answers, but far slower than its peers.
	Degraded
	// Overloaded: the node is shedding or queueing past its watermark.
	Overloaded
)

// Has reports whether any condition in mask is set.
func (s State) Has(mask State) bool { return s&mask != 0 }

// Hidden reports whether the node is out of every allocation: down or
// draining. The other two conditions only steer arbitration while the
// node is visible; arriving while it is hidden they are held — recorded,
// and effective once it is visible again.
func (s State) Hidden() bool { return s.Has(Down | Draining) }

// String lists the set conditions, strongest first ("up" for none).
func (s State) String() string {
	var names []string
	for i, name := range [...]string{"down", "draining", "degraded", "overloaded"} {
		if s.Has(1 << i) {
			names = append(names, name)
		}
	}
	if names == nil {
		return "up"
	}
	return strings.Join(names, "+")
}

// Event is one observed change of a node's condition: each condition has
// a setting and a clearing event.
type Event uint8

const (
	Fail       Event = iota // sets Down, and ends a drain: the graceful exit became the hard one
	Rise                    // clears Down
	DrainStart              // sets Draining; refused on a down node
	DrainAbort              // clears Draining
	Slow                    // sets Degraded
	Restore                 // clears Degraded
	Hot                     // sets Overloaded
	Cool                    // clears Overloaded
	// NumEvents sizes per-event tables.
	NumEvents
)

// edges is the state × event table: the bit each event moves, and which
// way.
var edges = [NumEvents]struct {
	name string
	bit  State
	set  bool
}{
	Fail:       {"fail", Down, true},
	Rise:       {"rise", Down, false},
	DrainStart: {"drain-start", Draining, true},
	DrainAbort: {"drain-abort", Draining, false},
	Slow:       {"slow", Degraded, true},
	Restore:    {"restore", Degraded, false},
	Hot:        {"hot", Overloaded, true},
	Cool:       {"cool", Overloaded, false},
}

func (e Event) String() string { return edges[e].name }

// ErrDown refuses DrainStart on a down node: nothing graceful is left to
// do for a node that is already gone.
var ErrDown = errors.New("nodestate: node is down")

// Apply is the whole transition function. It returns the state after e,
// whether that differs from s (a repeated event is an idempotent no-op),
// and ErrDown for the one refused cell. Down and Draining never coexist:
// Fail ends a drain, DrainStart is refused while down, and a State that
// carries both anyway is normalised to Down first.
func (s State) Apply(e Event) (next State, changed bool, err error) {
	next = s
	if next.Has(Down) {
		next &^= Draining
		if e == DrainStart {
			return next, next != s, ErrDown
		}
	}
	if edge := edges[e]; edge.set {
		next |= edge.bit
	} else {
		next &^= edge.bit
	}
	if e == Fail {
		next &^= Draining
	}
	return next, next != s, nil
}
