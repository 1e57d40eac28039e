package arbiter

// Elasticity tests: the graceful drain (exclusion under the no-shrink
// invariant, rollback on infeasibility) and dynamic pool membership
// (AddION / RemoveION). What a drain does to and with the other
// conditions, and every idempotent repeat, is the state × event table's
// business (transition_test.go).

import (
	"errors"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func TestDrainExcludesNodeKeepsAllocationCount(t *testing.T) {
	bus := mapping.NewBus()
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no initial allocation")
	}
	victim := got[0]
	want := len(got)

	if err := arb.Transition(victim, nodestate.DrainStart); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cur := arb.Current()["ior1"]
	if len(cur) != want {
		t.Fatalf("no-shrink violated: %d nodes after drain, want %d", len(cur), want)
	}
	if hit := assignedTo(arb.Current(), victim); len(hit) != 0 {
		t.Fatalf("draining node still assigned to %v", hit)
	}
	for _, addr := range bus.Current().For("ior1") {
		if addr == victim {
			t.Fatalf("published mapping routes to the draining node: %v", bus.Current().For("ior1"))
		}
	}
	if d := arb.NodesIn(nodestate.Draining); len(d) != 1 || d[0] != victim {
		t.Fatalf("Draining() = %v, want [%s]", d, victim)
	}
	if !nodeIn(arb, victim, nodestate.Draining) {
		t.Fatal("IsDraining(victim) = false")
	}
	if got := reg.Counter("arbiter_drains_started_total").Value(); got != 1 {
		t.Fatalf("arbiter_drains_started_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_draining").Value(); got != 1 {
		t.Fatalf("arbiter_ions_draining = %d, want 1", got)
	}
	// Unlike down, a draining node still counts as live — it is healthy.
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 12 {
		t.Fatalf("arbiter_ions_live = %d, want 12", got)
	}

	// A new job must not land on the draining node either.
	if _, err := arb.JobStarted(app(t, "HACC", "hacc1")); err != nil {
		t.Fatalf("JobStarted during drain: %v", err)
	}
	if hit := assignedTo(arb.Current(), victim); len(hit) != 0 {
		t.Fatalf("new job placed on draining node: %v", hit)
	}
}

func TestDrainRefusedWhenInfeasible(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(1), bus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	only := arb.Pool()[0]
	before := arb.Current()
	if err := arb.Transition(only, nodestate.DrainStart); err == nil {
		t.Fatal("draining the only node with a running job must be refused")
	} else if !errors.Is(err, ErrNoLiveIONs) {
		t.Fatalf("want ErrNoLiveIONs, got %v", err)
	}
	if nodeIn(arb, only, nodestate.Draining) {
		t.Fatal("refused drain left the draining mark set")
	}
	after := arb.Current()
	if len(after["ior1"]) != len(before["ior1"]) {
		t.Fatalf("refused drain changed the mapping: %v → %v", before, after)
	}
}

func TestAddIONGrowsPoolAndSpreads(t *testing.T) {
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(1), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("initial allocation %v, want 1 node", got)
	}
	for _, addr := range []string{"new0:1", "new1:1", "new2:1"} {
		if err := arb.AddION(addr); err != nil {
			t.Fatalf("AddION(%s): %v", addr, err)
		}
	}
	if got := len(arb.Pool()); got != 4 {
		t.Fatalf("pool = %d, want 4", got)
	}
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 4 {
		t.Fatalf("arbiter_ions_live = %d, want 4", got)
	}
	if got := len(arb.Current()["ior1"]); got <= 1 {
		t.Fatalf("job did not spread onto added capacity: %d nodes", got)
	}
	if err := arb.AddION("new0:1"); err == nil {
		t.Fatal("duplicate AddION must fail")
	}
	if err := arb.AddION(""); err == nil {
		t.Fatal("empty AddION must fail")
	}
}

func TestRemoveIONRefusedWhileAssigned(t *testing.T) {
	arb, err := New(policy.MCKP{}, addrs(2), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	busy := got[0]
	if err := arb.RemoveION(busy); !errors.Is(err, ErrIONAssigned) {
		t.Fatalf("want ErrIONAssigned, got %v", err)
	}
	// After a drain the node routes nothing and removal succeeds.
	if err := arb.Transition(busy, nodestate.DrainStart); err != nil {
		t.Fatal(err)
	}
	if err := arb.RemoveION(busy); err != nil {
		t.Fatalf("RemoveION after drain: %v", err)
	}
	if got := len(arb.Pool()); got != 1 {
		t.Fatalf("pool = %d, want 1", got)
	}
	if nodeIn(arb, busy, nodestate.Draining) {
		t.Fatal("removed node still tracked as draining")
	}
	if err := arb.RemoveION(busy); !errors.Is(err, ErrUnknownION) {
		t.Fatalf("second RemoveION: want ErrUnknownION, got %v", err)
	}
}
