package arbiter

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// TestReplayNodeEventKinds: a record of each kind, replayed onto a node
// in each of three conditions, moves the node exactly as the live
// arbiter's event would — a node-event kind through nodestate.Apply, a
// Fail that changed the node also pruning it from every assignment, a
// RemoveION dropping it from the pool — and a kind that concerns no node
// leaves it as it was.
func TestReplayNodeEventKinds(t *testing.T) {
	const all = nodestate.Draining | nodestate.Degraded | nodestate.Overloaded
	for k := journal.Kind(0); k < 32; k++ {
		for _, base := range []nodestate.State{0, all, nodestate.Down} {
			snap := &journal.State{
				Pool:    []string{"x", "y"},
				Nodes:   map[string]nodestate.State{"x": base},
				Running: []journal.App{{ID: "j"}},
				Assign:  map[string][]string{"j": {"x", "y"}},
			}
			a, err := restore(policy.MCKP{}, mapping.NewBus(), snap, []journal.Record{{LSN: 2, Kind: k, Addr: "x"}})
			if err != nil {
				t.Fatal(err)
			}
			want, member, pruned := base, true, false
			switch ev, isNode := k.Event(); {
			case isNode:
				var changed bool
				want, changed, _ = base.Apply(ev)
				pruned = ev == nodestate.Fail && changed
			case k == journal.KindRemoveION:
				want, member = 0, false
			}
			got, ok := a.StateOf("x")
			if got != want || ok != member {
				t.Errorf("replaying a %v record onto %v: node is %v (member %v), want %v (member %v)", k, base, got, ok, want, member)
			}
			if _, isNode := k.Event(); isNode && slices.Contains(a.Current()["j"], "x") == pruned {
				t.Errorf("replaying a %v record onto %v: x assigned %v, want %v", k, base, !pruned, pruned)
			}
		}
	}
}

// TestRecoverParentFormatJournal recovers the journal the commit before
// internal/nodestate wrote (internal/journal/testdata/parent-format: a
// legacy-layout snapshot and one record of each of the eight mark/drain
// kinds) and pins the arbiter it yields. Before reconciliation that is
// what the parent's own Replay printed for these files: down [ion-3
// ion-4], overloaded [ion-0 ion-4], draining [], degraded [ion-0 ion-2],
// app1 on [ion-0 ion-2] at epoch 7. Recovery keeps those conditions, and
// fences and republishes above epoch 7 off the hidden and quarantined
// nodes.
func TestRecoverParentFormatJournal(t *testing.T) {
	src := filepath.Join("..", "journal", "testdata", "parent-format")
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000000000001.snap", "seg-0000000000000002.wal"} {
		buf, err := os.ReadFile(filepath.Join(src, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), buf, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, tail, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := restore(policy.MCKP{}, mapping.NewBus(), snap, tail)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pre.Current(), map[string][]string{"app1": {"ion-0", "ion-2"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed assignment %v, want %v", got, want)
	}
	if pre.epoch != 7 {
		t.Fatalf("replayed epoch %d, want 7", pre.epoch)
	}

	rec, bus, err := recoverFrom(t, dir, RecoverConfig{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got, want := rec.Pool(), []string{"ion-0", "ion-1", "ion-2", "ion-3", "ion-4"}; !slices.Equal(got, want) {
		t.Fatalf("pool %v, want %v", got, want)
	}
	for _, c := range []struct {
		mask nodestate.State
		want []string
	}{
		{nodestate.Down, []string{"ion-3", "ion-4"}},
		{nodestate.Overloaded, []string{"ion-0", "ion-4"}},
		{nodestate.Draining, nil},
		{nodestate.Degraded, []string{"ion-0", "ion-2"}},
	} {
		if got := rec.NodesIn(c.mask); !slices.Equal(got, c.want) {
			t.Errorf("%v: %v, want %v", c.mask, got, c.want)
		}
	}
	running := rec.Running()
	if len(running) != 1 || running[0].ID != "app1" || running[0].Nodes != 4 || running[0].Processes != 16 || running[0].Curve.Len() != 1 {
		t.Fatalf("running set %+v, want app1 with its one-point curve", running)
	}
	if m := bus.Current(); m.Fence != 8 || m.Version < 8 {
		t.Fatalf("recovery published v%d fence %d, want the fence at 8", m.Version, m.Fence)
	}
	if got, want := rec.Current(), map[string][]string{"app1": {"ion-1"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered assignment %v, want %v", got, want)
	}
}

// TestRecoverFoldsSilently: replaying a journal of node, job, pool and
// publish records journals and counts nothing. After Recover the
// journal's new tail is the reconciliation's records — one Fail for the
// node that died in the blackout, one DrainAbort for the drain in flight
// — and the one recovery publish, and the arbiter_* event and membership
// counters show those two events and nothing else.
func TestRecoverFoldsSilently(t *testing.T) {
	dir := t.TempDir()
	arb, jn, _ := journaledArbiter(t, dir, 8)
	for _, id := range []string{"b", "a"} {
		if _, err := arb.JobStarted(app(t, "IOR-MPI", id)); err != nil {
			t.Fatal(err)
		}
	}
	pool := arb.Pool()
	for _, step := range []struct {
		addr string
		ev   nodestate.Event
	}{
		{pool[7], nodestate.Fail}, {pool[6], nodestate.Hot}, {pool[5], nodestate.Slow},
		{pool[4], nodestate.Fail}, {pool[4], nodestate.Rise}, {pool[6], nodestate.DrainStart},
	} {
		if err := arb.Transition(step.addr, step.ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := arb.AddION("spawn:1"); err != nil {
		t.Fatal(err)
	}
	if err := arb.RemoveION(pool[7]); err != nil {
		t.Fatal(err)
	}
	dead := arb.Current()["a"][0]
	jn.Close()

	_, before, last, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[journal.Kind]bool{}
	for _, r := range before {
		kinds[r.Kind] = true
	}
	for _, k := range []journal.Kind{journal.KindJobStarted, journal.KindPublish, journal.KindMarkDown,
		journal.KindMarkOverloaded, journal.KindMarkDegraded, journal.KindDrainStart, journal.KindAddION, journal.KindRemoveION} {
		if !kinds[k] {
			t.Fatalf("the journal holds no %v record to replay", k)
		}
	}

	reg := telemetry.New()
	rec, bus, err := recoverFrom(t, dir, RecoverConfig{
		Telemetry: reg, QuarantineFloor: 1,
		Probe: func(addr string) bool { return addr != dead },
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	_, after, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tail []journal.Record
	for _, r := range after {
		if r.LSN > last {
			r.LSN = 0
			tail = append(tail, r)
		}
	}
	want := []journal.Record{
		journal.NodeEvent(dead, nodestate.Fail),
		journal.NodeEvent(pool[6], nodestate.DrainAbort),
		{Kind: journal.KindPublish, Epoch: bus.Version(), Assign: rec.Current()},
	}
	if !reflect.DeepEqual(tail, want) {
		t.Fatalf("recovery journaled\n %+v\nwant the reconciliation and one publish\n %+v", tail, want)
	}

	wantCounts := map[string]int64{
		"arbiter_marked_down_total": 1, "arbiter_drains_aborted_total": 1,
		"arbiter_ions_added_total": 0, "arbiter_ions_removed_total": 0,
	}
	for _, name := range eventCounters {
		if _, ok := wantCounts[name]; !ok {
			wantCounts[name] = 0
		}
	}
	for name, want := range wantCounts {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d after recovery, want %d (reconciliation alone)", name, got, want)
		}
	}
}
