package arbiter

import (
	"fmt"
	"math/rand/v2"
	"runtime"
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
// solve, the address assignment, the one published snapshot every
// subscriber shares, and each client's new route view.
const decisionBudget = 32

// churnRig is the control plane of the arbiter_churn workload without the
// data plane: a 12-node MCKP arbiter and 8 forwarding clients, one per job
// slot, following its bus the way a livestack.Stack's clients do — one
// subscription and one goroutine applying every map to every client in
// order, each client started on the bus's current map. decide toggles a
// seeded slot (JobStarted or JobFinished) and returns once every client
// has applied the published map.
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
	ch, cancel := bus.Subscribe()
	<-ch // the clients started on Current above
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range ch {
			for _, c := range clients {
				c.ApplyMap(m)
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
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
		for _, c := range clients {
			for c.Stats().RemapsApplied < maps {
				runtime.Gosched()
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
