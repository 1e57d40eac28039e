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

// in reports whether the prober has addr in any condition of mask.
func in(p *Prober, addr string, mask nodestate.State) bool {
	st, _ := p.StateOf(addr)
	return st.Has(mask)
}

// isUp reports whether addr is probed and not down.
func isUp(p *Prober, addr string) bool {
	st, ok := p.StateOf(addr)
	return ok && !st.Has(nodestate.Down)
}

func TestProbeDetectsDownAndRecovery(t *testing.T) {
	srvA, addrA := pingServer(t)
	srvB, addrB := pingServer(t)
	defer srvB.Close()

	var evs []Event
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:         []string{addrA, addrB},
		Timeout:       100 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	evs = append(evs, p.ProbeOnce()...)
	if !isUp(p, addrA) || !isUp(p, addrB) {
		t.Fatal("both nodes should be up")
	}
	if len(evs) != 0 {
		t.Fatalf("no transitions expected yet: %v", evs)
	}

	srvA.Close()
	evs = append(evs, p.ProbeOnce()...) // failure 1 of 2: debounced, still up
	if !isUp(p, addrA) {
		t.Fatal("one failed ping must not mark a node down (FailThreshold=2)")
	}
	evs = append(evs, p.ProbeOnce()...) // failure 2 of 2: down
	if isUp(p, addrA) {
		t.Fatal("node should be down after FailThreshold failures")
	}
	if len(evs) != 1 || evs[0] != (Event{addrA, nodestate.Fail}) {
		t.Fatalf("want one Fail for %s, got %v", addrA, evs)
	}
	if got := reg.Counter("health_transitions_down_total").Value(); got != 1 {
		t.Fatalf("health_transitions_down_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 1 {
		t.Fatalf("health_ions_up = %d, want 1", got)
	}
	if in(p, addrB, nodestate.Down) {
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
	evs = append(evs, p.ProbeOnce()...)
	if isUp(p, addrA) {
		t.Fatal("one good ping must not mark a node up (RiseThreshold=2)")
	}
	evs = append(evs, p.ProbeOnce()...)
	if !isUp(p, addrA) {
		t.Fatal("node should be back up after RiseThreshold successes")
	}
	if len(evs) != 2 || evs[1] != (Event{addrA, nodestate.Rise}) {
		t.Fatalf("want a final Rise, got %v", evs)
	}
	if got := reg.Counter("health_transitions_up_total").Value(); got != 1 {
		t.Fatalf("health_transitions_up_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 2 {
		t.Fatalf("health_ions_up = %d, want 2", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty address set should fail")
	}
	if _, err := New(Config{Addrs: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate addresses should fail")
	}
}
