package arbiter

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
)

// canonical puts a journal state in comparable form: sorted running set,
// empty collections as nil.
func canonical(st journal.State) journal.State {
	sort.Slice(st.Running, func(i, k int) bool { return st.Running[i].ID < st.Running[k].ID })
	if len(st.Pool) == 0 {
		st.Pool = nil
	}
	if len(st.Nodes) == 0 {
		st.Nodes = nil
	}
	if len(st.Running) == 0 {
		st.Running = nil
	}
	if len(st.Assign) == 0 {
		st.Assign = nil
	}
	for job, addrs := range st.Assign {
		if len(addrs) == 0 {
			st.Assign[job] = nil
		}
	}
	return st
}

// TestJournalFoldEquivalenceProperty: the journal's fold and the live
// arbiter are two consumers of one transition function, so after any
// sequence of operations replaying the journal must give exactly the
// state the arbiter is in — node conditions, pool, running set, and the
// assignment and epoch with them. Seeded random sequences over every
// mutating entry point, with the policy failing now and then so the
// failure paths (a refused drain's rollback record, the pruned publish of
// a failed Fail solve, the compensating JobFinished) are folded too. Odd
// seeds compact every few dozen records, so their replay is a
// mid-sequence snapshot plus a tail; even seeds fold every record from
// the baseline.
func TestJournalFoldEquivalenceProperty(t *testing.T) {
	seeds, ops := 200, 300
	if testing.Short() {
		seeds = 20
	}
	labels := []string{"IOR-MPI", "HACC", "POSIX-L", "POSIX-S"}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		dir := t.TempDir()
		opts := journal.Options{NoSync: true, SnapshotEvery: 1 << 30}
		if seed%2 == 1 {
			opts.SnapshotEvery = 20 + rng.Intn(60)
		}
		jn, err := journal.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		pol := &scriptedPolicy{inner: policy.MCKP{}}
		arb, err := New(pol, addrs(6), mapping.NewBus())
		if err != nil {
			t.Fatal(err)
		}
		arb.WithQuarantine(2).WithJournal(jn)
		spawned := 0
		for op := 0; op < ops; op++ {
			pol.fail = rng.Intn(10) == 0
			pool := arb.Pool()
			member := "nobody:1" // an empty pool, or now and then on purpose: ErrUnknownION
			if len(pool) > 0 && rng.Intn(20) != 0 {
				member = pool[rng.Intn(len(pool))]
			}
			// Errors are part of the sequence (refusals, failed solves):
			// whatever the arbiter did or declined to do, the journal
			// must say the same.
			switch k := rng.Intn(10); {
			case k < 5:
				arb.Transition(member, nodestate.Event(rng.Intn(int(nodestate.NumEvents))))
			case k < 6 && len(pool) < 10:
				spawned++
				arb.AddION(fmt.Sprintf("spawn%d:1", spawned))
			case k < 7:
				arb.RemoveION(member)
			case k < 9:
				id := fmt.Sprintf("job%d", rng.Intn(5))
				arb.JobStarted(app(t, labels[rng.Intn(len(labels))], id))
			default:
				arb.JobFinished(fmt.Sprintf("job%d", rng.Intn(5)))
			}
		}
		arb.mu.Lock()
		live := canonical(arb.stateLocked())
		arb.mu.Unlock()
		jn.Close()

		replayed, _, _, err := journal.Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(*replayed); !reflect.DeepEqual(got, live) {
			t.Fatalf("seed %d (snapshot every %d): replay diverged from the live arbiter\n replayed %+v\n live     %+v",
				seed, opts.SnapshotEvery, got, live)
		}
	}
}
