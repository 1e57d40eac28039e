package health

// Overload-detection tests: pings double as load reports (queue depth and
// cumulative rejects ride the ping response), overload transitions are
// debounced separately from liveness, and a busy ping proves a node alive
// — the one misclassification the design forbids is "overloaded" read as
// "down".

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// loadServer answers pings with a scripted load report, or a busy
// response when shedding is on.
type loadServer struct {
	depth    atomic.Int64
	rejects  atomic.Int64
	shedding atomic.Bool
}

func (l *loadServer) start(t *testing.T) (*rpc.Server, string) {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		if l.shedding.Load() {
			return &rpc.Message{Op: req.Op, Busy: true, RetryAfter: time.Millisecond}
		}
		return &rpc.Message{Op: req.Op, Size: l.depth.Load(), Offset: l.rejects.Load()}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestOverloadDetectionByQueueDepth(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	var evs []Event
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:              []string{addr},
		Timeout:            100 * time.Millisecond,
		OverloadQueueDepth: 10,
		OverloadThreshold:  2,
		OverloadRecovery:   2,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// Healthy depth: no overload state accrues.
	ls.depth.Store(3)
	evs = append(evs, p.ProbeOnce()...)
	evs = append(evs, p.ProbeOnce()...)
	if in(p, addr, nodestate.Overloaded) || len(evs) != 0 {
		t.Fatal("healthy node misread as overloaded")
	}
	if got := reg.Gauge(fmt.Sprintf("health_ion_queue_depth{ion=%q}", addr)).Value(); got != 3 {
		t.Fatalf("queue-depth gauge = %d, want 3", got)
	}

	// One hot sweep is not enough (debounce), two are.
	ls.depth.Store(25)
	evs = append(evs, p.ProbeOnce()...)
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("one hot sweep must not mark overload")
	}
	evs = append(evs, p.ProbeOnce()...)
	if !in(p, addr, nodestate.Overloaded) {
		t.Fatal("two hot sweeps should mark overload")
	}
	if len(evs) != 1 || evs[0] != (Event{addr, nodestate.Hot}) {
		t.Fatalf("unexpected overload events: %+v", evs)
	}
	if got := reg.Counter("health_transitions_overloaded_total").Value(); got != 1 {
		t.Fatalf("health_transitions_overloaded_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_overloaded").Value(); got != 1 {
		t.Fatalf("health_ions_overloaded = %d, want 1", got)
	}
	// Overload is not down: liveness is untouched.
	if !isUp(p, addr) {
		t.Fatal("overloaded node must remain up")
	}

	// Recovery debounces the same way.
	ls.depth.Store(2)
	evs = append(evs, p.ProbeOnce()...)
	if !in(p, addr, nodestate.Overloaded) {
		t.Fatal("one cool sweep must not clear overload")
	}
	evs = append(evs, p.ProbeOnce()...)
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("two cool sweeps should clear overload")
	}
	if len(evs) != 2 || evs[1] != (Event{addr, nodestate.Cool}) {
		t.Fatalf("Cool event missing: %+v", evs)
	}
	if got := reg.Counter("health_transitions_recovered_total").Value(); got != 1 {
		t.Fatalf("health_transitions_recovered_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_overloaded").Value(); got != 0 {
		t.Fatalf("health_ions_overloaded = %d, want 0 after recovery", got)
	}
}

func TestOverloadDetectionByShedDelta(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	p, err := New(Config{
		Addrs:             []string{addr},
		Timeout:           100 * time.Millisecond,
		OverloadShedDelta: 5,
		OverloadThreshold: 1,
		OverloadRecovery:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// First sweep establishes the baseline; a large cumulative count with
	// no delta yet must not trigger (the counter is cumulative, not a rate).
	ls.rejects.Store(1000)
	p.ProbeOnce()
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("baseline sweep has no delta; must not mark overload")
	}
	// +3 rejects: below the delta threshold.
	ls.rejects.Store(1003)
	p.ProbeOnce()
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("delta 3 < 5 must not mark overload")
	}
	// +7 rejects: above it.
	ls.rejects.Store(1010)
	p.ProbeOnce()
	if !in(p, addr, nodestate.Overloaded) {
		t.Fatal("delta 7 ≥ 5 should mark overload")
	}
	// Flat counter: recovery.
	p.ProbeOnce()
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("flat reject counter should clear overload")
	}
}

// TestBusyPingIsAliveAndOverloaded: a daemon shedding even its pings is
// the strongest overload signal there is — and explicit proof of life.
// Misreading it as down would remove capacity exactly when removing
// capacity hurts most.
func TestBusyPingIsAliveAndOverloaded(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:              []string{addr},
		Timeout:            100 * time.Millisecond,
		FailThreshold:      2,
		OverloadQueueDepth: 100, // depth signal armed but never reached
		OverloadThreshold:  2,
		OverloadRecovery:   1,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	ls.shedding.Store(true)
	for i := 0; i < 4; i++ { // well past FailThreshold
		p.ProbeOnce()
	}
	if !isUp(p, addr) {
		t.Fatal("busy pings misclassified the node as down")
	}
	if got := reg.Counter("health_probe_failures_total").Value(); got != 0 {
		t.Fatalf("busy pings counted as probe failures: %d", got)
	}
	if !in(p, addr, nodestate.Overloaded) {
		t.Fatal("shed pings should mark the node overloaded")
	}

	ls.shedding.Store(false)
	p.ProbeOnce()
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("normal pings should clear busy-driven overload")
	}
	if !isUp(p, addr) {
		t.Fatal("node should remain up throughout")
	}
}

// TestOverloadInactiveWithoutThresholds: with neither signal configured
// the prober keeps its legacy behavior — busy pings still count as alive,
// but no overload state is tracked.
func TestOverloadInactiveWithoutThresholds(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	p, err := New(Config{
		Addrs:   []string{addr},
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	ls.shedding.Store(true)
	for i := 0; i < 5; i++ {
		p.ProbeOnce()
	}
	if !isUp(p, addr) {
		t.Fatal("busy ping misread as down even with detection off")
	}
	if in(p, addr, nodestate.Overloaded) {
		t.Fatal("overload state tracked despite no signal being configured")
	}
}
