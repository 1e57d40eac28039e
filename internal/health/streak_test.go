package health

// Tests of the one debouncer and of what the three planes built on it
// promise together: a fixed delivery order within a sweep, and seeded
// conditions that clear through the ordinary edges.

import (
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
)

// TestStreakTable drives the debouncer alone: for every set/clear
// threshold pair in 1..3 it replays signal scripts and checks the flips
// land exactly where the thresholds say — a held signal never flips
// twice, an alternating one never flips at a threshold above 1, and one
// contrary sweep short of the threshold resets the count.
func TestStreakTable(t *testing.T) {
	scripts := map[string][]bool{
		"held-on":     {true, true, true, true, true, true, true},
		"held-off":    {false, false, false, false, false, false, false},
		"alternating": {true, false, true, false, true, false, true, false},
		"burst-gap":   {true, true, false, true, true, true, false, false, false, true},
		"on-then-off": {true, true, true, false, false, false, true, true, true},
	}
	for set := 1; set <= 3; set++ {
		for clear := 1; clear <= 3; clear++ {
			for name, script := range scripts {
				// Reference: the hand-rolled pair of counters the streak
				// replaced — one counting towards the set edge, one towards
				// the clear edge.
				var (
					k            streak
					on, refOn    bool
					hits, misses int
				)
				for i, signal := range script {
					wantFlip := false
					switch {
					case !refOn && signal:
						if hits++; hits >= set {
							refOn, hits, wantFlip = true, 0, true
						}
					case !refOn:
						hits = 0
					case !signal:
						if misses++; misses >= clear {
							refOn, misses, wantFlip = false, 0, true
						}
					default:
						misses = 0
					}
					flipped := k.observe(on, signal, set, clear)
					if flipped {
						on = !on
					}
					if flipped != wantFlip || on != refOn {
						t.Fatalf("set=%d clear=%d %s step %d (signal %v): flipped=%v on=%v, want flipped=%v on=%v",
							set, clear, name, i, signal, flipped, on, wantFlip, refOn)
					}
				}
				switch name {
				case "held-on":
					if !on {
						t.Errorf("set=%d clear=%d: a held signal never set the bit", set, clear)
					}
				case "held-off":
					if on {
						t.Errorf("set=%d clear=%d: no signal, yet the bit is set", set, clear)
					}
				case "alternating":
					if set > 1 && on {
						t.Errorf("set=%d: an alternating signal set the bit", set)
					}
				}
			}
		}
	}
}

// deadAddr returns an address nothing listens on (connections are
// refused at once, so a probe fails fast).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestProbeSweepDeliversEventsInFixedOrder: the order of the events a
// sweep returns reaches the mapping (the arbiter re-solves per event), so one
// sweep in which several nodes change must always deliver the same
// sequence — liveness plane first, then overload, ascending address
// within each. Fifty identical sweeps with four simultaneous failures and
// two simultaneous overloads deliver one order.
func TestProbeSweepDeliversEventsInFixedOrder(t *testing.T) {
	var dead, hot []string
	for i := 0; i < 4; i++ {
		dead = append(dead, deadAddr(t))
	}
	for i := 0; i < 2; i++ {
		ls := &loadServer{}
		ls.depth.Store(50)
		_, addr := ls.start(t)
		hot = append(hot, addr)
	}
	sort.Strings(dead)
	sort.Strings(hot)
	var want []Event
	for _, a := range dead {
		want = append(want, Event{a, nodestate.Fail})
	}
	for _, a := range hot {
		want = append(want, Event{a, nodestate.Hot})
	}
	for sweep := 0; sweep < 50; sweep++ {
		p, err := New(Config{
			Addrs:              append(append([]string(nil), hot...), dead...),
			Timeout:            time.Second,
			FailThreshold:      1,
			OverloadQueueDepth: 10,
			OverloadThreshold:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := p.ProbeOnce()
		p.Stop()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep %d delivered\n  %v\nwant\n  %v", sweep, got, want)
		}
	}
}

// TestProbeSeededConditionsFireClearingEdges: a prober started over nodes
// that already carry conditions (a control plane restarted from its
// journal) must clear them through the ordinary debounced edges once the
// nodes prove healthy — and must not fire anything for the edges it was
// seeded past. Draining is not the prober's bit and is dropped.
func TestProbeSeededConditionsFireClearingEdges(t *testing.T) {
	var addrs []string
	for i := 0; i < 4; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	sk := latency.NewSketch(0)
	for _, a := range addrs {
		seedSketch(sk, a, 10*time.Millisecond, 60)
	}
	var evs []Event
	p, err := New(Config{
		Addrs:              addrs[3:], // one plain member; the rest are seeded below
		Timeout:            time.Second,
		RiseThreshold:      2,
		OverloadQueueDepth: 10,
		OverloadRecovery:   3,
		SlowFactor:         4,
		SlowRecovery:       4,
		Latency:            sk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	seeds := []nodestate.State{
		nodestate.Down | nodestate.Draining,
		nodestate.Overloaded,
		nodestate.Degraded,
	}
	for i, seed := range seeds {
		if err := p.Add(addrs[i], seed); err != nil {
			t.Fatal(err)
		}
		if got, _ := p.StateOf(addrs[i]); got != seed&^nodestate.Draining {
			t.Fatalf("seeded %v, StateOf = %v", seed, got)
		}
	}
	wantAt := map[int]Event{ // sweep (1-based) → the edge that must fire on it
		2: {addrs[0], nodestate.Rise},
		3: {addrs[1], nodestate.Cool},
		4: {addrs[2], nodestate.Restore},
	}
	var want []Event
	for sweep := 1; sweep <= 6; sweep++ {
		evs = append(evs, p.ProbeOnce()...)
		if e, ok := wantAt[sweep]; ok {
			want = append(want, e)
		}
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("after sweep %d events = %v, want %v", sweep, evs, want)
		}
	}
	for _, a := range addrs {
		if st, _ := p.StateOf(a); st != 0 {
			t.Errorf("%s still %v after healing", a, st)
		}
	}
}
