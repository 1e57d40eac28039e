package arbiter

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/fwd"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/testkit"
)

// decisionBudget is what one arbitration decision may allocate end to
// end on a 12-node MCKP arbiter with 8 subscribed clients: the policy's
// Allocation and Choice, the one published snapshot every subscriber
// shares, and each client's new route view. The arbiter's own assignment
// is built in reused buffers (15 measured).
const decisionBudget = 18

// churnRig is the control plane of the arbiter_churn workload without the
// data plane: a 12-node MCKP arbiter and 8 forwarding clients, one per job
// slot, following its bus the way a livestack.Stack's clients do — one
// follower applying every map to every client in order inside Publish,
// each client started on the bus's current map. decide toggles a seeded
// slot (JobStarted or JobFinished); when the call returns every client
// has applied the published map, and decide checks that.
func churnRig(t *testing.T) (decide func()) {
	t.Helper()
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 8
	clients := make([]*fwd.Client, slots)
	ids := make([]string, slots)
	for i := range clients {
		ids[i] = fmt.Sprintf("slot%d", i)
		c, err := fwd.NewClient(fwd.Config{AppID: ids[i], Direct: pfs.NewStore(pfs.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.ApplyMap(bus.Current())
		clients[i] = c
	}
	t.Cleanup(bus.Follow(func(m mapping.Map) {
		for _, c := range clients {
			c.ApplyMap(m)
		}
	}))
	specs := perfmodel.EvaluationApps()
	rng := rand.New(rand.NewPCG(1, 2))
	var running [slots]bool
	maps := int64(1) // the bus's initial map
	return func() {
		s := rng.IntN(slots)
		var err error
		if running[s] {
			err = arb.JobFinished(ids[s])
		} else {
			_, err = arb.JobStarted(policy.FromAppSpec(ids[s], specs[rng.IntN(len(specs))]))
		}
		if err != nil {
			t.Fatal(err)
		}
		running[s] = !running[s]
		maps++
		for i, c := range clients {
			if got := c.Stats().RemapsApplied; got != maps {
				t.Fatalf("%s applied %d maps when the decision returned, want %d", ids[i], got, maps)
			}
		}
	}
}

// TestSharedSnapshotRace: the one snapshot the bus hands every subscriber
// never aliases the arbiter's own address slices, which a Fail prunes in
// place. Under -race, 8 subscribers read every address of every delivered
// map while job churn and direct publishes run beside Fail/Rise events.
func TestSharedSnapshotRace(t *testing.T) {
	bus := mapping.NewBus()
	pool := addrs(12)
	arb, err := New(policy.MCKP{}, pool, bus)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []policy.Application
	for i, label := range []string{"IOR-MPI", "POSIX-L", "HACC", "BT-C"} {
		jobs = append(jobs, app(t, label, fmt.Sprint("j", i)))
		if _, err := arb.JobStarted(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var readers sync.WaitGroup
	var cancels []func()
	for i := 0; i < 8; i++ {
		ch, cancel := bus.Subscribe()
		cancels = append(cancels, cancel)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for m := range ch {
				seen := map[string]string{}
				for id, ions := range m.IONs {
					for _, addr := range ions {
						if other, dup := seen[addr]; dup || !slices.Contains(pool, addr) {
							t.Errorf("v%d: %s on %s (also %q)", m.Version, id, addr, other)
						}
						seen[addr] = id
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	run := func(fn func(i int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				fn(i)
			}
		}()
	}
	run(func(i int) { // Fail prunes the arbiter's slices in place
		addr := pool[i%len(pool)]
		arb.Transition(addr, nodestate.Fail)
		arb.Transition(addr, nodestate.Rise)
	})
	run(func(i int) {
		job := jobs[i%len(jobs)]
		arb.JobFinished(job.ID)
		arb.JobStarted(job)
	})
	run(func(int) { bus.Publish(arb.Current()) })
	writers.Wait()
	for _, cancel := range cancels {
		cancel()
	}
	readers.Wait()
}

// TestDecisionAllocationPin pins the allocations of one decision, counted
// process-wide until all 8 clients have applied its map.
func TestDecisionAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	decide := churnRig(t)
	for i := 0; i < 64; i++ {
		decide() // grow the arbiter's maps to their steady size
	}
	got := testing.AllocsPerRun(400, decide)
	if got > decisionBudget {
		t.Fatalf("one decision allocates %.1f objects, budget %d", got, decisionBudget)
	}
}

// TestBareDecisionAllocationPin pins the arbiter's own share of a
// decision: one JobStarted and one JobFinished beside three running jobs
// on a 12-node MCKP arbiter that nobody subscribes to. Each decision
// allocates 6 objects — the map Bus.Publish copies the assignment into
// (header and one group) and its flat address backing, the policy's
// Allocation map (header and one group) and the solver's Choice — and
// JobStarted adds the copy of the new job's 8 addresses it returns: 13.
// Node records, the job list, the assignment buffers and the DP tables
// are all reused.
func TestBareDecisionAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	arb, err := New(policy.MCKP{}, addrs(12), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range []string{"POSIX-L", "HACC", "BT-C"} {
		if _, err := arb.JobStarted(app(t, label, fmt.Sprint("j", i))); err != nil {
			t.Fatal(err)
		}
	}
	job := app(t, "IOR-MPI", "j3")
	got := testing.AllocsPerRun(200, func() {
		if ions, err := arb.JobStarted(job); err != nil || len(ions) != 8 {
			t.Fatalf("JobStarted(%s) = %v, %v; want 8 nodes", job.ID, ions, err)
		}
		if err := arb.JobFinished(job.ID); err != nil {
			t.Fatal(err)
		}
	})
	if got > 13 {
		t.Fatalf("one JobStarted and one JobFinished allocate %.1f objects, want ≤ 13", got)
	}
}
