package scenario

// Noisy-neighbor scenarios: eight writers of one application storm its
// file while a polite application writes 64 × 4 KiB, timed per call.
//
// Storm (`make storm`): shallow bounded queues, and one I/O node of the
// burst's allocation slowed 4 ms a write. Sheds are backpressure, not
// failure — no breaker trips, failover or down mark under a hair-trigger
// breaker; the slow node is detected overloaded and steered around
// without shrinking the pool; the busy-response books balance; the polite
// app's p99 stays bounded.
//
// QoS (`make qos`): a guaranteed tenant with an SLO against a scavenger
// pushing 10× its bytes through a tiny token bucket. The guaranteed p99
// holds its SLO and it is never degraded; the scavenger is squeezed onto
// the direct path, never blocked.

import (
	"testing"
	"time"
)

func TestStormSlowIONShedsThrottleAndSteer(t *testing.T) {
	r, _ := start(t, "storm")
	burst := &App{ID: "burst", Label: "IOR-MPI", Writers: 8, Segments: 16, Size: 16 << 10}
	steady := &App{ID: "steady", Label: "BT-C", Writers: 1, Segments: 64, Size: 4096}
	r.Open(burst, steady)
	if len(burst.Alloc) == 0 {
		t.Fatal("no allocation for the burst app")
	}
	r.store(burst.Alloc[0]).SetDelay(4 * time.Millisecond) // a node the burst really uses
	r.Drive(Workload{}, burst, steady).Stop()
	r.Check(t, burst, steady)

	// Receipts before sends, so an in-flight probe cannot race the audit.
	busy, sheds := r.Metric("rpc_busy_responses_total"), r.Metric("fwd_shed_responses_total")
	if sent := r.Metric("ion_queue_rejects_total") + r.Metric("rpc_server_shed_total"); busy > sent || sheds > busy {
		t.Fatalf("busy books: %d sent, %d received, %d counted as sheds by clients", sent, busy, sheds)
	}
	r.Expect(t,
		AtLeast("ion_queue_rejects_total", 1), // the storm saturated the bounded queue
		AtLeast(`fwd_shed_responses_total{app="burst"}`, 1),
		// Sheds are backpressure, not failure: with threshold 2 one
		// misclassified shed would trip a breaker or fail a chunk over.
		Exactly("rpc_breaker_open_total", 0),
		Exactly("rpc_deadline_expired_total", 0),
		Exactly("fwd_failover_ops_total", 0),
		Exactly("health_transitions_down_total", 0), // slow is not dead
		Exactly("arbiter_marked_down_total", 0),
		Exactly("arbiter_ions_live", 12), // overload never shrinks the pool
		AtLeast("health_transitions_overloaded_total", 1),
		AtLeast("arbiter_marked_overloaded_total", 1))
	if p99 := steady.Latency(0.99); p99 > time.Second {
		t.Fatalf("steady-app p99 write latency = %v, want ≤ 1s", p99)
	}
}

func TestQoSNoisyNeighborIsolation(t *testing.T) {
	r, _ := start(t, "qos")
	scav := &App{ID: "scav", Label: "IOR-MPI", Writers: 8, Segments: 16, Size: 5 * 4096} // 10× gold's bytes
	gold := &App{ID: "gold", Label: "BT-C", Writers: 1, Segments: 64, Size: 4096}
	r.Open(scav, gold)
	r.Drive(Workload{}, scav, gold).Stop()
	r.Check(t, scav, gold)
	if p99, slo := gold.Latency(0.99), tenants(noisyNeighborQoS).ClassFor("gold").SLO; p99 > slo {
		t.Fatalf("gold p99 write latency = %v, class SLO is %v", p99, slo)
	}
	r.Expect(t,
		Exactly(`qos_degraded_total{app="gold"}`, 0), // guaranteed buckets pace, never refuse
		AtLeast(`qos_admitted_total{app="gold"}`, 1),
		AtLeast(`qos_degraded_total{app="scav"}`, 1), // squeezed...
		AtLeast(`qos_admitted_total{app="scav"}`, 1), // ...not starved
		AtLeast(`fwd_degraded_ops_total{app="scav"}`, 1))
}
