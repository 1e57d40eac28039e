package arbiter

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
)

// TestJournalFoldEquivalenceProperty: replay drives the mutators the
// live entry points use, so after any sequence of operations the arbiter
// restored from the journal — before any reconciliation — must be the
// arbiter that wrote it: node conditions, running set in ID order, the
// assignment and epoch, and the pool, sorted. Seeded random sequences
// over every mutating entry point, with the policy failing now and then
// so the failure paths (a refused drain's rollback record, the pruned
// publish of a failed Fail solve, the compensating JobFinished) are
// replayed too. Odd seeds compact every few dozen records, so their
// replay is a mid-sequence snapshot plus a tail; even seeds replay every
// record from the baseline.
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
		jn.Close()

		snap, tail, _, err := journal.Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := restore(policy.MCKP{}, mapping.NewBus(), snap, tail)
		if err != nil {
			t.Fatal(err)
		}
		want := arb.Pool()
		slices.Sort(want)
		if got := rec.Pool(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: restored pool %v, want the live pool sorted %v", seed, got, want)
		}
		arb.mu.Lock()
		live := arb.stateLocked()
		arb.mu.Unlock()
		if got := rec.stateLocked(); !reflect.DeepEqual(got, live) {
			t.Fatalf("seed %d (snapshot every %d): restored arbiter diverged from the live one\n restored %+v\n live     %+v",
				seed, opts.SnapshotEvery, got, live)
		}
	}
}
