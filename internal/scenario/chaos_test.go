package scenario

// Chaos scenarios (`make chaos`): kill or wedge an I/O-node daemon
// mid-workload. No write is lost, failover to the direct PFS path is
// prompt, the prober marks the node down, the arbiter publishes a mapping
// without it, and every transition shows as a counter. TestRestartRejoin
// closes the loop: the killed daemon warm-restarts and rejoins.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/rpc"
)

// TestChaosKillDaemonMidWorkload: 12 I/O nodes, one allocated daemon
// killed in the middle of a write stream.
func TestChaosKillDaemonMidWorkload(t *testing.T) {
	r, _ := start(t, "chaos-kill")
	app := &App{ID: "ior1", Label: "IOR-MPI", Writers: 1, Segments: 40, Size: 16 << 10} // 4 chunks a write
	r.Open(app)
	if len(app.Alloc) == 0 {
		t.Fatal("no allocation")
	}
	dead, buf := app.Alloc[0], make([]byte, app.Size)
	for s := 0; s < app.Segments; s++ {
		if s == 12 {
			r.DaemonAt(dead).Close()
		}
		if _, err := app.Put(0, s, buf); err != nil {
			t.Fatalf("write segment %d (dead=%v): %v", s, s >= 12, err)
		}
	}
	// Bounded recovery: the prober marks the node down, the arbiter
	// re-arbitrates, and the new mapping reaches the client.
	c := app.Clients[0]
	Await(t, 5*time.Second, func() bool { ions := c.IONs(); return len(ions) > 0 && !slices.Contains(ions, dead) },
		"client never saw a mapping without the dead ION (has %v)", lazy(func() any { return c.IONs() }))
	if m := r.Bus.Current().For("ior1"); slices.Contains(m, dead) || len(m) == 0 {
		t.Fatalf("published mapping still includes the dead ION: %v", m)
	}
	r.Check(t, app)
	r.Expect(t,
		AtLeast(`fwd_failover_ops_total{app="ior1"}`, 1),
		AtLeast("rpc_breaker_open_total", 1),
		Exactly("health_transitions_down_total", 1),
		Exactly("arbiter_marked_down_total", 1),
		Exactly("arbiter_ions_live", 11))
}

// TestChaosHangFailoverAndBreakerRecovery wedges the one daemon with a
// network hang instead: per-call deadlines turn the hang into failover,
// the breaker opens, and once the fault lifts the breaker's half-open
// probe restores forwarding.
func TestChaosHangFailoverAndBreakerRecovery(t *testing.T) {
	r, _ := start(t, "chaos-hang")
	app := &App{ID: "app", Label: "IOR-MPI", Writers: 1, Segments: 3, Size: 512}
	r.Open(app)
	buf := make([]byte, app.Size)
	put := func(s int, phase string) {
		t.Helper()
		if _, err := app.Put(0, s, buf); err != nil {
			t.Fatalf("%s write: %v", phase, err)
		}
	}
	put(0, "healthy")

	inj := r.net(r.Addrs[0])
	inj.Set(faultnet.Plan{Kind: faultnet.Hang})
	put(1, "hung (must fail over)")
	r.Expect(t,
		AtLeast("rpc_deadline_expired_total", 1),
		AtLeast("rpc_breaker_open_total", 1),
		AtLeast(`fwd_failover_ops_total{app="app"}`, 1))
	failovers := r.Metric(`fwd_failover_ops_total{app="app"}`)

	// Lift the fault; after the cooldown the next call is the half-open
	// probe, which must close the breaker and resume forwarding.
	inj.Set(faultnet.Plan{})
	time.Sleep(250 * time.Millisecond) // the breaker's cooldown, and a margin
	put(2, "recovered")
	r.Expect(t,
		AtLeast("rpc_breaker_close_total", 1),
		Exactly(`fwd_failover_ops_total{app="app"}`, failovers))
	r.Check(t, app)
}

// TestRestartRejoin: a killed daemon warm-restarts on its old address, the
// prober observes it rise, the arbiter re-admits it, and checksummed,
// deduplicated traffic flows through it again.
func TestRestartRejoin(t *testing.T) {
	r, _ := start(t, "rejoin")
	app := &App{ID: "ior1", Label: "IOR-MPI", Writers: 1, Segments: 16, Size: 16 << 10}
	r.Open(app)
	if len(app.Alloc) == 0 {
		t.Fatal("no allocation")
	}
	buf := make([]byte, app.Size)
	for s := 0; s < 8; s++ {
		if _, err := app.Put(0, s, buf); err != nil {
			t.Fatalf("write segment %d: %v", s, err)
		}
	}
	victim := slices.Index(r.IONAddrs(), app.Alloc[0])
	r.Daemons[victim].Close()
	Await(t, 5*time.Second, func() bool { return r.Metric("arbiter_ions_live") == 11 },
		"the arbiter never marked the killed ION down")

	if err := r.RestartION(victim); err != nil {
		t.Fatalf("RestartION: %v", err)
	}
	Await(t, 5*time.Second, func() bool { return r.Metric("arbiter_ions_live") == 12 },
		"the arbiter never re-admitted the restarted ION")
	// The daemon serves on its old address again, and counts the cycle.
	cli := rpc.Dial(r.Addrs[victim], 1)
	defer cli.Close()
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing}); err != nil {
		t.Fatalf("ping restarted ION: %v", err)
	}
	if got := r.Daemons[victim].Stats().Restarts; got != 1 {
		t.Fatalf("daemon Restarts = %d, want 1", got)
	}
	for s := 8; s < 16; s++ {
		if _, err := app.Put(0, s, buf); err != nil {
			t.Fatalf("write segment %d after rejoin: %v", s, err)
		}
	}
	r.Check(t, app)
	r.Expect(t,
		Exactly("health_transitions_up_total", 1),
		Exactly("arbiter_marked_up_total", 1),
		Exactly("rpc_checksum_errors_total", 0)) // the integrity path was on, the wire clean
}
