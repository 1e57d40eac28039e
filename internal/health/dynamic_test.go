package health

// Dynamic-membership tests: the prober follows the pool it is given — a
// member added down rises through the ordinary edge, a member removed is
// forgotten — and the Load() demand signal.

import (
	"testing"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// TestPoolMemberAddedDownRises: a node that joins the pool down (a fresh
// provision) is probed from the next sweep on and must earn its Rise —
// RiseThreshold successful pings — like any down node.
func TestPoolMemberAddedDownRises(t *testing.T) {
	srvA, addrA := pingServer(t)
	defer srvA.Close()
	srvB, addrB := pingServer(t)
	defer srvB.Close()

	var evs []Event
	pool := members(addrA)
	p, err := New(Config{
		Pool:          pool,
		Timeout:       100 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	evs = append(evs, sweep(p, pool)...)
	pool[addrB] = nodestate.Down
	evs = append(evs, sweep(p, pool)...) // rise 1 of 2
	if isUp(pool, addrB) {
		t.Fatal("node rose before RiseThreshold")
	}
	evs = append(evs, sweep(p, pool)...) // rise 2 of 2
	if !isUp(pool, addrB) {
		t.Fatal("node did not rise after RiseThreshold successful pings")
	}
	if len(evs) != 1 || evs[0] != (Event{addrB, nodestate.Rise}) {
		t.Fatalf("events = %v, want one Rise for %s", evs, addrB)
	}
}

// TestPoolMemberRemovedIsForgotten: once a node leaves the pool the next
// sweep stops probing it and drops what the prober kept for it — its
// load sample and its latency samples — so a dead removed node fires
// nothing and a reused address starts clean.
func TestPoolMemberRemovedIsForgotten(t *testing.T) {
	srvA, addrA := pingServer(t)
	defer srvA.Close()
	srvB, addrB := pingServer(t)

	reg := telemetry.New()
	sk := latency.NewSketch(0)
	pool := members(addrA, addrB)
	p, err := New(Config{
		Pool:      pool,
		Timeout:   100 * time.Millisecond,
		Latency:   sk,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	sweep(p, pool)
	if _, ok := p.Load()[addrB]; !ok {
		t.Fatal("member missing from Load() after a loaded sweep")
	}
	delete(pool, addrB)
	srvB.Close() // a dead removed node must not produce transitions
	if _, ok := p.Load()[addrB]; ok {
		t.Fatal("removed node still present in Load()")
	}
	sk.Observe(addrB, time.Second) // a client's late sample
	for i := 0; i < 5; i++ {
		sweep(p, pool)
	}
	if got := reg.Counter("health_transitions_down_total").Value(); got != 0 {
		t.Fatalf("removed node produced %d down transitions", got)
	}
	if got := reg.Counter("health_probes_total").Value(); got != 2+5 {
		t.Fatalf("health_probes_total = %d, want 7: the removed node is probed no more", got)
	}
	if n := sk.Samples(addrB); n != 0 {
		t.Fatalf("removed node keeps %d latency samples", n)
	}
}

func TestLoadReportsSampledQueueDepth(t *testing.T) {
	// A ping handler that reports a queue depth of 7 in the Size field,
	// the way ion daemons do.
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op, Size: 7}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := members(addr)
	p, err := New(Config{
		Pool:    pool,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	if got := p.Load()[addr]; got != 0 {
		t.Fatalf("depth before any sweep = %d, want 0", got)
	}
	sweep(p, pool)
	if got := p.Load()[addr]; got != 7 {
		t.Fatalf("depth = %d, want 7", got)
	}
	pool[addr] = nodestate.Down // down in the pool: not the planner's evidence
	if _, ok := p.Load()[addr]; ok {
		t.Fatal("Load() reports a node the pool has down")
	}
}
