package scenario

// Elastic pool breathing (`make elastic`), the capacity plane's acceptance
// scenario. The pool starts at its floor of 2 I/O nodes with every write
// slowed, so queue depth is a real demand signal. A burst of 2 apps × 24
// writers must breathe it out to its ceiling of 12, through a provisioner
// that fails some spawns; when the burst ends the delay drops to zero — a
// demand cliff, not a decaying tail, which would make regrowth the correct
// decision — and the pool must breathe back in through graceful drains,
// while the scenario kills a draining node mid-flight (the drain must
// abort, never decommission a corpse it still counts; the warm-restarted
// node drains cleanly later). Beyond the oracle set: the breath is one
// breath (flap budget), the chaos was real, the two planes' books agree.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/nodestate"
)

// capacity renders the capacity plane for a wait that gave up on it.
func capacity(r *Rig) lazy {
	return func() any {
		var b strings.Builder
		for _, s := range []string{"elastic_pool_size", "elastic_provisioning", "elastic_draining",
			"elastic_scale_ups_total", "elastic_scale_downs_total", "elastic_drains_started_total",
			"elastic_drains_aborted_total", "elastic_drains_forced_total", "elastic_drains_refused_total",
			"elastic_provisions_started_total", "elastic_provision_failures_total", "elastic_provision_rollbacks_total",
			"elastic_provision_breaker_opens_total", "arbiter_ions_added_total", "arbiter_ions_removed_total",
			"arbiter_solves_total"} {
			fmt.Fprintf(&b, "\n  %s = %d", s, r.Metric(s))
		}
		fmt.Fprintf(&b, "\n  arbiter pool = %v, draining = %v\n  scaler members = %v\n  health load = %v",
			r.Arbiter.Pool(), r.Arbiter.NodesIn(nodestate.Draining), r.Scaler.Members(), r.Health.Load())
		return b.String()
	}
}

func TestElasticPoolBreathesUnderChaos(t *testing.T) {
	const minPool, maxPool = 2, 12
	r, flaky := start(t, "elastic")
	flaky.FailCalls(2, 5)
	// Every write, on every node and on the direct path, is slow: queues
	// are service-bound, so the depth signal cannot trough on scheduler
	// noise mid-burst — and an unallocated app cannot write at a line rate
	// no PFS offers and starve the signal from the side.
	r.setDelay(50 * time.Millisecond)
	// ION assignment is exclusive per app, so the app count must fit the
	// floor; at it the second app may get nothing and write to the PFS.
	apps := []*App{
		{ID: "app0", Label: "IOR-MPI", Writers: 24, Segments: 24, Size: 8192},
		{ID: "app1", Label: "BT-C", Writers: 24, Segments: 24, Size: 8192},
	}
	r.Open(apps...)
	run := r.Drive(Workload{Rewrite: true}, apps...)
	poolIs := func(n int64) func() bool { return func() bool { return r.Metric("elastic_pool_size") == n } }

	Await(t, 90*time.Second, poolIs(maxPool), "the burst never grew the pool to %d:%v", maxPool, capacity(r))
	r.setDelay(0) // the demand cliff
	run.Stop()
	if t.Failed() {
		t.FailNow()
	}

	// Breathe in, under fire: kill the first drain caught mid-flight —
	// fresh, so the kill lands early in its quiesce window (a drain about
	// to decommission leaves before the prober sees the corpse).
	killed := map[string]bool{}
	for attempt := 0; attempt < 5 && r.Metric("elastic_drains_aborted_total") == 0; attempt++ {
		base, victim := r.Metric("elastic_drains_started_total"), ""
		for deadline := time.Now().Add(20 * time.Second); victim == "" && time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			for _, a := range r.Arbiter.NodesIn(nodestate.Draining) {
				if r.Metric("elastic_drains_started_total") > base && !killed[a] {
					victim = a
				}
			}
		}
		if victim == "" {
			break
		}
		killed[victim] = true
		r.DaemonAt(victim).Close()
		for deadline := time.Now().Add(3 * time.Second); r.Metric("elastic_drains_aborted_total") == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	if r.Metric("elastic_drains_aborted_total") == 0 {
		t.Fatal("never caught a drain mid-flight: no drain aborted")
	}
	// A down member can neither drain nor leave: revive the corpses.
	for addr := range killed {
		if _, err := r.Revive(addr); err != nil {
			t.Fatal(err)
		}
	}
	Await(t, 60*time.Second, poolIs(minPool), "the pool never shrank back to %d:%v", minPool, capacity(r))
	Await(t, 10*time.Second, func() bool { return r.Metric("elastic_draining")+r.Metric("elastic_provisioning") == 0 },
		"the capacity plane never came to rest:%v", capacity(r))

	r.Check(t, apps...) // stops the control plane: the reads below push real queue depth
	ups, downs := r.Metric("elastic_scale_ups_total"), r.Metric("elastic_scale_downs_total")
	t.Logf("at rest: ups=%d downs=%d solves=%d", ups, downs, r.Metric("arbiter_solves_total"))
	r.Expect(t,
		// One breath out, one in: 2→12 is 10 promotions, and the cliff
		// leaves no tail to justify regrowth — a little slack, no second cycle.
		Want{"elastic_scale_ups_total", maxPool - minPool, maxPool - minPool + 2},
		Exactly("elastic_scale_downs_total", ups), // back at the floor, nothing in flight
		Want{"arbiter_solves_total", 0, 120},      // re-arbitration stays bounded
		// The chaos was real and was counted.
		AtLeast("elastic_provision_failures_total", flaky.Failed()),
		AtLeast("elastic_drains_aborted_total", 1),
		// The scaler's books agree with the arbiter's.
		Exactly("elastic_drains_started_total", downs+r.Metric("elastic_drains_aborted_total")),
		Exactly("arbiter_ions_added_total", ups),
		Exactly("arbiter_ions_removed_total", downs),
		Exactly("arbiter_ions_draining", 0))
	if flaky.Failed() < 2 || len(r.Arbiter.Pool()) != minPool {
		t.Fatalf("%d provisioning failures injected (want 2), %d nodes at rest (want %d)", flaky.Failed(), len(r.Arbiter.Pool()), minPool)
	}
}
