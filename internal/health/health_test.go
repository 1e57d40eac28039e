package health

import (
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func pingServer(t *testing.T) (*rpc.Server, string) {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// fakePool stands in for the arbiter: the members and the condition each
// is recorded in, moved only by the events sweep applies.
type fakePool map[string]nodestate.State

func members(addrs ...string) fakePool {
	pool := fakePool{}
	for _, a := range addrs {
		pool[a] = 0
	}
	return pool
}

func (f fakePool) Pool() []string {
	out := make([]string, 0, len(f))
	for a := range f {
		out = append(out, a)
	}
	return out
}

func (f fakePool) StateOf(addr string) (nodestate.State, bool) {
	st, ok := f[addr]
	return st, ok
}

// sweep runs one sweep and applies its events to pool, as the control
// plane applies them to the arbiter.
func sweep(p *Prober, pool fakePool) []Event {
	evs := p.ProbeOnce()
	for _, e := range evs {
		pool[e.Addr], _, _ = pool[e.Addr].Apply(e.Kind)
	}
	return evs
}

// in reports whether the pool has addr in any condition of mask.
func in(pool fakePool, addr string, mask nodestate.State) bool {
	return pool[addr].Has(mask)
}

// isUp reports whether addr is a member and not down.
func isUp(pool fakePool, addr string) bool {
	st, ok := pool[addr]
	return ok && !st.Has(nodestate.Down)
}

func TestProbeDetectsDownAndRecovery(t *testing.T) {
	srvA, addrA := pingServer(t)
	srvB, addrB := pingServer(t)
	defer srvB.Close()

	var evs []Event
	reg := telemetry.New()
	pool := members(addrA, addrB)
	p, err := New(Config{
		Pool:          pool,
		Timeout:       100 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	evs = append(evs, sweep(p, pool)...)
	if !isUp(pool, addrA) || !isUp(pool, addrB) {
		t.Fatal("both nodes should be up")
	}
	if len(evs) != 0 {
		t.Fatalf("no transitions expected yet: %v", evs)
	}

	srvA.Close()
	evs = append(evs, sweep(p, pool)...) // failure 1 of 2: debounced, still up
	if !isUp(pool, addrA) {
		t.Fatal("one failed ping must not mark a node down (FailThreshold=2)")
	}
	evs = append(evs, sweep(p, pool)...) // failure 2 of 2: down
	if isUp(pool, addrA) {
		t.Fatal("node should be down after FailThreshold failures")
	}
	if len(evs) != 1 || evs[0] != (Event{addrA, nodestate.Fail}) {
		t.Fatalf("want one Fail for %s, got %v", addrA, evs)
	}
	if got := reg.Counter("health_transitions_down_total").Value(); got != 1 {
		t.Fatalf("health_transitions_down_total = %d, want 1", got)
	}
	if in(pool, addrB, nodestate.Down) {
		t.Fatal("healthy node B reported down")
	}

	// Restart on the same address; RiseThreshold=2 debounces recovery.
	srvA2, err2 := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op}
	}), error(nil)
	if _, err2 = srvA2.Listen(addrA); err2 != nil {
		t.Fatalf("rebind %s: %v", addrA, err2)
	}
	defer srvA2.Close()
	evs = append(evs, sweep(p, pool)...)
	if isUp(pool, addrA) {
		t.Fatal("one good ping must not mark a node up (RiseThreshold=2)")
	}
	evs = append(evs, sweep(p, pool)...)
	if !isUp(pool, addrA) {
		t.Fatal("node should be back up after RiseThreshold successes")
	}
	if len(evs) != 2 || evs[1] != (Event{addrA, nodestate.Rise}) {
		t.Fatalf("want a final Rise, got %v", evs)
	}
	if got := reg.Counter("health_transitions_up_total").Value(); got != 1 {
		t.Fatalf("health_transitions_up_total = %d, want 1", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("a prober without a pool should fail")
	}
}
