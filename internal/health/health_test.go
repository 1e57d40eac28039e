package health

import (
	"sync"
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

// collector records events thread-safely.
type collector struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collector) add(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = append(c.evs, e)
}

func (c *collector) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
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

	col := &collector{}
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:         []string{addrA, addrB},
		Interval:      time.Second, // driven manually via ProbeOnce
		Timeout:       100 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
		OnEvent:       col.add,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	p.ProbeOnce()
	if !isUp(p, addrA) || !isUp(p, addrB) {
		t.Fatal("both nodes should be up")
	}
	if len(col.all()) != 0 {
		t.Fatalf("no transitions expected yet: %v", col.all())
	}

	srvA.Close()
	p.ProbeOnce() // failure 1 of 2: debounced, still up
	if !isUp(p, addrA) {
		t.Fatal("one failed ping must not mark a node down (FailThreshold=2)")
	}
	p.ProbeOnce() // failure 2 of 2: down
	if isUp(p, addrA) {
		t.Fatal("node should be down after FailThreshold failures")
	}
	trs := col.all()
	if len(trs) != 1 || trs[0] != (Event{addrA, nodestate.Fail}) {
		t.Fatalf("want one Fail for %s, got %v", addrA, trs)
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
	p.ProbeOnce()
	if isUp(p, addrA) {
		t.Fatal("one good ping must not mark a node up (RiseThreshold=2)")
	}
	p.ProbeOnce()
	if !isUp(p, addrA) {
		t.Fatal("node should be back up after RiseThreshold successes")
	}
	trs = col.all()
	if len(trs) != 2 || trs[1] != (Event{addrA, nodestate.Rise}) {
		t.Fatalf("want a final Rise, got %v", trs)
	}
	if got := reg.Counter("health_transitions_up_total").Value(); got != 1 {
		t.Fatalf("health_transitions_up_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 2 {
		t.Fatalf("health_ions_up = %d, want 2", got)
	}
}

func TestStartStopLoop(t *testing.T) {
	srv, addr := pingServer(t)
	defer srv.Close()
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:     []string{addr},
		Interval:  2 * time.Millisecond,
		Timeout:   50 * time.Millisecond,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	probes := reg.Counter("health_probes_total")
	deadline := time.Now().Add(2 * time.Second)
	for probes.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	// Stop is idempotent and Stop-after-Stop must not hang.
	p.Stop()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty address set should fail")
	}
	if _, err := New(Config{Addrs: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate addresses should fail")
	}
}

func TestStopWithoutStart(t *testing.T) {
	srv, addr := pingServer(t)
	defer srv.Close()
	p, err := New(Config{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}
}
