package jobs

import (
	"testing"

	"repro/internal/policy"
)

func TestRandomQueueReproducible(t *testing.T) {
	a, err := RandomQueue(7, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomQueue(7, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Arrival != b[i].Arrival {
			t.Fatalf("queue not reproducible at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Different seeds differ.
	c, _ := RandomQueue(8, 20, 5)
	same := true
	for i := range a {
		if a[i].ID != c[i].ID {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical queues")
	}
}

func TestRandomQueueValidation(t *testing.T) {
	if _, err := RandomQueue(1, 0, 5); err == nil {
		t.Fatal("zero-length queue should fail")
	}
}

func TestRandomQueueArrivalsMonotone(t *testing.T) {
	q, err := RandomQueue(3, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	ids := map[string]bool{}
	for _, j := range q {
		if j.Arrival < prev {
			t.Fatalf("arrivals not monotone: %v", j)
		}
		prev = j.Arrival
		if ids[j.ID] {
			t.Fatalf("duplicate job ID %s", j.ID)
		}
		ids[j.ID] = true
	}
}

// TestRandomQueuesMCKPRobust: across many random queues, dynamic MCKP
// never does worse than sticky STATIC on the Equation-2 aggregate.
func TestRandomQueuesMCKPRobust(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		queue, err := RandomQueue(seed, 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		run := func(p policy.Policy, sticky bool) float64 {
			res, err := SimulateQueue(SimConfig{
				Jobs: queue, ComputeNodes: 96, IONs: 12,
				Policy: p, Sticky: sticky, AllowDirect: false,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return float64(res.Aggregate)
		}
		mckp := run(policy.MCKP{}, false)
		static := run(policy.Static{SystemCompute: 96, SystemIONs: 12}, true)
		if mckp < static*0.999 {
			t.Fatalf("seed %d: MCKP %.0f below STATIC %.0f", seed, mckp, static)
		}
	}
}

// TestRecruitIdleImproves is the paper's future-work scenario: a machine
// with no forwarding layer at all (every job accesses the PFS directly).
// Recruiting idle compute nodes as temporary I/O nodes gives the arbiter
// something to allocate and must improve the aggregate.
func TestRecruitIdleImproves(t *testing.T) {
	queue, err := PaperQueue()
	if err != nil {
		t.Fatal(err)
	}
	run := func(recruit bool) float64 {
		res, err := SimulateQueue(SimConfig{
			Jobs: queue, ComputeNodes: 96, IONs: 0, // no forwarding deployed
			Policy: policy.MCKP{}, AllowDirect: true,
			RecruitIdle: recruit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Aggregate)
	}
	base := run(false)
	recruited := run(true)
	if recruited <= base {
		t.Fatalf("recruiting should improve a machine without forwarding: %.0f vs %.0f", recruited, base)
	}
	t.Logf("no forwarding: %.2f GB/s; with idle-node recruiting: %.2f GB/s (%.2fx)",
		base/1e9, recruited/1e9, recruited/base)
}

// TestInfeasibleWithoutSharing documents the §3.1 motivation for the
// shared-node option: a 2-ION machine without direct access cannot host
// more concurrent jobs than I/O nodes under dedicated-only policies.
func TestInfeasibleWithoutSharing(t *testing.T) {
	queue, err := PaperQueue()
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateQueue(SimConfig{
		Jobs: queue, ComputeNodes: 96, IONs: 2,
		Policy: policy.MCKP{}, AllowDirect: false,
	})
	if err == nil {
		t.Fatal("6 concurrent jobs on 2 dedicated IONs without direct access should be infeasible")
	}
}

// TestSharedNodeMakesTightMachineFeasible: the §3.1 sharing extension lets
// the 14-job queue run on a 2-ION machine without direct access, which is
// infeasible for dedicated-only policies (TestInfeasibleWithoutSharing).
func TestSharedNodeMakesTightMachineFeasible(t *testing.T) {
	queue, err := PaperQueue()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateQueue(SimConfig{
		Jobs: queue, ComputeNodes: 96, IONs: 2,
		Policy: policy.WithShared{}, AllowDirect: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerJob) != 14 {
		t.Fatalf("completed %d of 14 jobs", len(res.PerJob))
	}
	if res.Aggregate <= 0 {
		t.Fatal("no aggregate bandwidth")
	}
	t.Logf("2-ION machine with sharing: %.2f GB/s aggregate, makespan %.0f s",
		res.Aggregate.GBps(), res.Makespan)
}
