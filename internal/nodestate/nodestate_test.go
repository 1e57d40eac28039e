package nodestate

import (
	"errors"
	"testing"
)

// TestApplyTable pins the whole state × event table: all 16 bit
// combinations (the 12 reachable states plus the four that carry both
// Down and Draining, which Apply must normalise) × all 8 events. The
// expectation is written out independently of the edges table.
func TestApplyTable(t *testing.T) {
	type edge struct {
		bit State
		set bool
	}
	want := map[Event]edge{
		Fail: {Down, true}, Rise: {Down, false},
		DrainStart: {Draining, true}, DrainAbort: {Draining, false},
		Slow: {Degraded, true}, Restore: {Degraded, false},
		Hot: {Overloaded, true}, Cool: {Overloaded, false},
	}
	if len(want) != int(NumEvents) {
		t.Fatalf("table covers %d events, NumEvents = %d", len(want), NumEvents)
	}
	for s := State(0); s < 16; s++ {
		for e := Event(0); e < NumEvents; e++ {
			// Expected next state, from first principles.
			exp := s
			if exp&Down != 0 {
				exp &^= Draining // never both: down wins
			}
			refused := e == DrainStart && exp&Down != 0
			if !refused {
				if w := want[e]; w.set {
					exp |= w.bit
				} else {
					exp &^= w.bit
				}
				if e == Fail {
					exp &^= Draining // a dying drain is an aborted drain
				}
			}

			next, changed, err := s.Apply(e)
			if next != exp {
				t.Errorf("%v.Apply(%v) = %v, want %v", s, e, next, exp)
			}
			if changed != (next != s) {
				t.Errorf("%v.Apply(%v): changed = %v, but %v → %v", s, e, changed, s, next)
			}
			if refused != errors.Is(err, ErrDown) || (!refused && err != nil) {
				t.Errorf("%v.Apply(%v): err = %v, refused = %v", s, e, err, refused)
			}
			if next&Down != 0 && next&Draining != 0 {
				t.Errorf("%v.Apply(%v) = %v: Down and Draining coexist", s, e, next)
			}
			// Idempotence: the same event again changes nothing.
			if again, changed2, _ := next.Apply(e); again != next || changed2 {
				t.Errorf("%v.Apply(%v) twice: %v → %v (changed %v)", s, e, next, again, changed2)
			}
		}
	}
}

func TestHiddenAndString(t *testing.T) {
	for s := State(0); s < 16; s++ {
		if got, want := s.Hidden(), s&(Down|Draining) != 0; got != want {
			t.Errorf("%v.Hidden() = %v, want %v", s, got, want)
		}
	}
	for s, want := range map[State]string{
		0:                     "up",
		Down:                  "down",
		Draining | Overloaded: "draining+overloaded",
		Down | Degraded:       "down+degraded",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
	if got := DrainStart.String(); got != "drain-start" {
		t.Errorf("DrainStart.String() = %q", got)
	}
}
