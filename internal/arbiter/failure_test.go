package arbiter

// Failure-tolerance tests: health-driven pool shrink/grow (Fail / Rise)
// and the typed-error edge cases — JobStarted on an empty or
// fully-down pool, JobFinished for an unknown id.

import (
	"errors"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// nodeIn reports whether the arbiter has addr in any condition of mask.
func nodeIn(a *Arbiter, addr string, mask nodestate.State) bool {
	st, _ := a.StateOf(addr)
	return st.Has(mask)
}

func assignedTo(assign map[string][]string, addr string) []string {
	var apps []string
	for app, addrs := range assign {
		for _, a := range addrs {
			if a == addr {
				apps = append(apps, app)
			}
		}
	}
	return apps
}

func TestMarkDownExcludesNodeAndRearbitrates(t *testing.T) {
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
	dead := got[0]
	versionBefore := bus.Current().Version

	if err := arb.Transition(dead, nodestate.Fail); err != nil {
		t.Fatalf("MarkDown: %v", err)
	}
	if hit := assignedTo(arb.Current(), dead); len(hit) != 0 {
		t.Fatalf("down node still assigned to %v", hit)
	}
	m := bus.Current()
	if m.Version <= versionBefore {
		t.Fatal("MarkDown must publish a new mapping")
	}
	for _, addr := range m.For("ior1") {
		if addr == dead {
			t.Fatalf("published mapping routes to the down node: %v", m.For("ior1"))
		}
	}
	if got := reg.Counter("arbiter_marked_down_total").Value(); got != 1 {
		t.Fatalf("arbiter_marked_down_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_down").Value(); got != 1 {
		t.Fatalf("arbiter_ions_down = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 11 {
		t.Fatalf("arbiter_ions_live = %d, want 11", got)
	}
	if down := arb.NodesIn(nodestate.Down); len(down) != 1 || down[0] != dead {
		t.Fatalf("Down() = %v, want [%s]", down, dead)
	}

	// Idempotent re-mark: no extra count, no error.
	if err := arb.Transition(dead, nodestate.Fail); err != nil {
		t.Fatalf("second MarkDown: %v", err)
	}
	if got := reg.Counter("arbiter_marked_down_total").Value(); got != 1 {
		t.Fatalf("re-mark counted twice: %d", got)
	}
}

func TestMarkUpRegrowsJobs(t *testing.T) {
	bus := mapping.NewBus()
	arb, _ := New(policy.MCKP{}, addrs(12), bus)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	dead := got[0]
	if err := arb.Transition(dead, nodestate.Fail); err != nil {
		t.Fatal(err)
	}
	shrunk := len(arb.Current()["ior1"])
	if err := arb.Transition(dead, nodestate.Rise); err != nil {
		t.Fatalf("MarkUp: %v", err)
	}
	regrown := len(arb.Current()["ior1"])
	if regrown < shrunk {
		t.Fatalf("allocation shrank on MarkUp: %d → %d", shrunk, regrown)
	}
	if len(arb.NodesIn(nodestate.Down)) != 0 {
		t.Fatalf("Down() = %v after MarkUp", arb.NodesIn(nodestate.Down))
	}
	// MarkUp of an up node is a no-op.
	if err := arb.Transition(dead, nodestate.Rise); err != nil {
		t.Fatalf("second MarkUp: %v", err)
	}
}

// TestMarkDownSolveFailureStillHoldsInvariant: even when the policy solve
// fails during a MarkDown, the published mapping must not route any job to
// the down node — the invariant is enforced before the solve, not by it.
func TestMarkDownSolveFailureStillHoldsInvariant(t *testing.T) {
	bus := mapping.NewBus()
	pol := &scriptedPolicy{inner: policy.MCKP{}}
	arb, err := New(pol, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	dead := got[0]
	versionBefore := bus.Current().Version

	pol.fail = true
	if err := arb.Transition(dead, nodestate.Fail); err == nil {
		t.Fatal("solve failure must surface from MarkDown")
	}
	m := bus.Current()
	if m.Version <= versionBefore {
		t.Fatal("failure path must still publish the pruned mapping")
	}
	for appID, list := range m.IONs {
		for _, addr := range list {
			if addr == dead {
				t.Fatalf("job %s still routed to down node on the failure path", appID)
			}
		}
	}

	// Recovery: the policy heals, the next change re-arbitrates normally.
	pol.fail = false
	if _, err := arb.JobStarted(app(t, "HACC", "h")); err != nil {
		t.Fatalf("arbiter wedged after failed MarkDown solve: %v", err)
	}
	if hit := assignedTo(arb.Current(), dead); len(hit) != 0 {
		t.Fatalf("down node handed back out after recovery: %v", hit)
	}
}

func TestJobStartedEmptyPoolTypedError(t *testing.T) {
	arb, err := New(policy.MCKP{}, nil, mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(app(t, "HACC", "h")); !errors.Is(err, ErrNoLiveIONs) {
		t.Fatalf("empty pool: want ErrNoLiveIONs, got %v", err)
	}
}

func TestJobStartedFullyDownPoolTypedError(t *testing.T) {
	pool := addrs(2)
	arb, err := New(policy.MCKP{}, pool, mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range pool {
		if err := arb.Transition(a, nodestate.Fail); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := arb.JobStarted(app(t, "HACC", "h")); !errors.Is(err, ErrNoLiveIONs) {
		t.Fatalf("fully-down pool: want ErrNoLiveIONs, got %v", err)
	}
	// One node recovers: starting works again.
	if err := arb.Transition(pool[0], nodestate.Rise); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(app(t, "HACC", "h")); err != nil {
		t.Fatalf("start after partial recovery: %v", err)
	}
}

func TestJobFinishedUnknownTypedError(t *testing.T) {
	arb, _ := New(policy.MCKP{}, addrs(2), mapping.NewBus())
	if err := arb.JobFinished("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want ErrUnknownJob, got %v", err)
	}
}

// TestRunningJobSurvivesFullOutageAndRecovery: every node dies, then one
// comes back; the job must end up mapped onto the survivor (and only onto
// live nodes at every published step).
func TestRunningJobSurvivesFullOutageAndRecovery(t *testing.T) {
	pool := addrs(4)
	bus := mapping.NewBus()
	arb, _ := New(policy.MCKP{}, pool, bus)
	if _, err := arb.JobStarted(policy.Application{
		ID: "j", Nodes: 8, Processes: 8,
		Curve: perfmodel.NewCurve(
			perfmodel.Point{IONs: 0, Bandwidth: 1},
			perfmodel.Point{IONs: 1, Bandwidth: 10},
			perfmodel.Point{IONs: 2, Bandwidth: 20},
			perfmodel.Point{IONs: 4, Bandwidth: 30},
		),
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range pool {
		// The final MarkDown leaves no live node: the solve fails with
		// ErrNoLiveIONs but the published mapping must still be safe.
		err := arb.Transition(a, nodestate.Fail)
		if len(arb.NodesIn(nodestate.Down)) == len(pool) {
			if !errors.Is(err, ErrNoLiveIONs) {
				t.Fatalf("full outage should report ErrNoLiveIONs, got %v", err)
			}
		} else if err != nil {
			t.Fatalf("MarkDown %s: %v", a, err)
		}
		for _, list := range arb.Current() {
			for _, x := range list {
				if arbContains(arb.NodesIn(nodestate.Down), x) {
					t.Fatalf("assignment routes to down node %s", x)
				}
			}
		}
	}
	if n := len(bus.Current().For("j")); n != 0 {
		t.Fatalf("fully-down pool but job still mapped to %d nodes", n)
	}
	if err := arb.Transition(pool[2], nodestate.Rise); err != nil {
		t.Fatalf("MarkUp after outage: %v", err)
	}
	m := bus.Current().For("j")
	if len(m) != 1 || m[0] != pool[2] {
		t.Fatalf("job should regrow onto the survivor %s, got %v", pool[2], m)
	}
}

func arbContains(list []string, x string) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}
