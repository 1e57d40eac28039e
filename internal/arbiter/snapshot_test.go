package arbiter

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
)

// TestPublishedSnapshotsAreNeverWritten: the bus takes the arbiter's
// assignment over as the snapshot its followers share, so no mutator may
// write a map once it is published — each copies first. A follower keeps
// every map it receives beside a deep copy taken on arrival; a seeded
// script then drives every mutator of a published assignment: Fail's
// prune and Rise, JobFinished (of the last job, and one whose solve
// fails), a JobStarted whose solve fails, AddION/RemoveION and a journal
// Recover onto the same bus. At the end every held map must equal its
// copy.
func TestPublishedSnapshotsAreNeverWritten(t *testing.T) {
	type held struct{ m, copy mapping.Map }
	var got []held
	bus := mapping.NewBus()
	defer bus.Follow(func(m mapping.Map) { got = append(got, held{m, m.Clone()}) })()

	dir := t.TempDir()
	opts := journal.Options{NoSync: true, SnapshotEvery: 32}
	jn, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { jn.Close() }()
	pol := &scriptedPolicy{inner: policy.MCKP{}}
	arb, err := New(pol, addrs(8), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.WithJournal(jn)

	// reached counts the paths the script must cover.
	var reached struct{ prunes, lastFinishes, failedFinishes, failedStarts, adds, removes, recovers int }
	labels := []string{"IOR-MPI", "HACC", "POSIX-L", "BT-C"}
	rng := rand.New(rand.NewPCG(7, 45))
	spawned := 0
	for step := 0; step < 1500; step++ {
		pol.fail = rng.IntN(6) == 0
		pool := arb.Pool()
		member := pool[rng.IntN(len(pool))]
		id := fmt.Sprint("job", rng.IntN(4))
		switch k := rng.IntN(20); {
		case k < 4:
			for _, a := range arb.Current() {
				if slices.Contains(a, member) { // assigned, so up: the Fail prunes it
					reached.prunes++
					break
				}
			}
			arb.Transition(member, nodestate.Fail)
		case k < 8:
			arb.Transition(member, nodestate.Rise)
		case k < 12:
			if _, err := arb.JobStarted(app(t, labels[rng.IntN(len(labels))], id)); err != nil && pol.fail {
				reached.failedStarts++
			}
		case k < 16:
			last := len(arb.Running()) == 1
			switch err := arb.JobFinished(id); {
			case err == nil && last:
				reached.lastFinishes++
			case err != nil && !errors.Is(err, ErrUnknownJob) && strings.Contains(err.Error(), "previous mapping kept"):
				reached.failedFinishes++
			}
		case k < 18 && len(pool) < 12:
			spawned++
			if arb.AddION(fmt.Sprintf("spawn%d:1", spawned)) == nil {
				reached.adds++
			}
		case k < 19:
			if arb.RemoveION(member) == nil {
				reached.removes++
			}
		default:
			jn.Close()
			if jn, err = journal.Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			dead := pool[rng.IntN(len(pool))]
			arb, err = Recover(RecoverConfig{Journal: jn, Policy: pol, Bus: bus, Probe: func(a string) bool { return a != dead }})
			if arb == nil {
				t.Fatalf("Recover: %v", err)
			}
			reached.recovers++
		}
	}
	if r := reached; r.prunes == 0 || r.lastFinishes == 0 || r.failedFinishes == 0 || r.failedStarts == 0 ||
		r.adds == 0 || r.removes == 0 || r.recovers == 0 {
		t.Fatalf("script misses a path: %+v", r)
	}
	for _, h := range got {
		if h.m.Version != h.copy.Version || h.m.Fence != h.copy.Fence ||
			!maps.EqualFunc(h.m.IONs, h.copy.IONs, slices.Equal[[]string]) {
			t.Fatalf("published v%d was written after its publication: now %v, published as %v",
				h.copy.Version, h.m.IONs, h.copy.IONs)
		}
	}
	t.Logf("%d maps held; paths %+v", len(got), reached)
}
