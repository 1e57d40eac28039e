package arbiter

// The state × event table, cell by cell: what Transition does to a node in
// every reachable state on every event, with and without a job running.
// This is the one place idempotent repeats, refusals, and the way the
// conditions interleave (a mark on a down or draining node, a node dying
// mid-drain, a mark that outlives a drain) are pinned; the scenario tests
// in the other files cover steering, the floor, no-shrink and solve
// failures.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

const (
	sDown = nodestate.Down
	sDrng = nodestate.Draining
	sDegr = nodestate.Degraded
	sOvld = nodestate.Overloaded
)

// eventKind is the journal record kind of each event, written out here
// (not read from journal.NodeEvent) so the table also pins the pairing.
var eventKind = [nodestate.NumEvents]journal.Kind{
	nodestate.Fail: journal.KindMarkDown, nodestate.Rise: journal.KindMarkUp,
	nodestate.DrainStart: journal.KindDrainStart, nodestate.DrainAbort: journal.KindDrainAbort,
	nodestate.Slow: journal.KindMarkDegraded, nodestate.Restore: journal.KindMarkRestored,
	nodestate.Hot: journal.KindMarkOverloaded, nodestate.Cool: journal.KindMarkRecovered,
}

// eventCounters are the eight per-event series.
var eventCounters = [nodestate.NumEvents]string{
	nodestate.Fail: "arbiter_marked_down_total", nodestate.Rise: "arbiter_marked_up_total",
	nodestate.DrainStart: "arbiter_drains_started_total", nodestate.DrainAbort: "arbiter_drains_aborted_total",
	nodestate.Slow: "arbiter_quarantine_marked_total", nodestate.Restore: "arbiter_quarantine_restored_total",
	nodestate.Hot: "arbiter_marked_overloaded_total", nodestate.Cool: "arbiter_overload_recovered_total",
}

// cell is what one (state, event) cell must do.
type cell struct {
	next    nodestate.State
	refused bool // ErrIONDown, nothing else happens
	moved   bool // the state changed: one journal record, the event's counter +1
	aborted bool // arbiter_drains_aborted_total moves too (the node died mid-drain)
	solves  bool // with a job running: one solve and one publish
}

// wantCell is the table, written from the rules rather than from
// nodestate.Apply. It is the behaviour of the eight Mark*/Drain* methods
// this table replaced, with one rule in place of their special cases: a
// health mark (Hot/Cool/Slow/Restore) on a hidden — down or draining —
// node is held: recorded and counted, no solve. (The methods dropped Hot
// and Slow on a draining node outright, and re-solved for all four on a
// down node and for Cool/Restore on a draining one.)
func wantCell(s nodestate.State, ev nodestate.Event) cell {
	same := cell{next: s}
	hidden := s.Has(sDown | sDrng)
	mark := func(bit nodestate.State, set bool) cell {
		if s.Has(bit) == set {
			return same
		}
		return cell{next: s ^ bit, moved: true, solves: !hidden}
	}
	switch ev {
	case nodestate.Fail:
		if s.Has(sDown) {
			return same
		}
		return cell{next: s&^sDrng | sDown, moved: true, aborted: s.Has(sDrng), solves: true}
	case nodestate.Rise:
		if !s.Has(sDown) {
			return same
		}
		return cell{next: s &^ sDown, moved: true, solves: true}
	case nodestate.DrainStart:
		if s.Has(sDrng) {
			return same
		}
		if s.Has(sDown) {
			return cell{next: s, refused: true}
		}
		return cell{next: s | sDrng, moved: true, solves: true}
	case nodestate.DrainAbort:
		if !s.Has(sDrng) {
			return same
		}
		return cell{next: s &^ sDrng, moved: true, solves: true}
	case nodestate.Slow:
		return mark(sDegr, true)
	case nodestate.Restore:
		return mark(sDegr, false)
	case nodestate.Hot:
		return mark(sOvld, true)
	default: // Cool
		return mark(sOvld, false)
	}
}

// tableRig is one journaled, instrumented arbiter over six nodes.
type tableRig struct {
	arb *Arbiter
	bus *mapping.Bus
	reg *telemetry.Registry
	dir string
}

func newTableRig(t *testing.T, jobs int) *tableRig {
	t.Helper()
	r := &tableRig{bus: mapping.NewBus(), reg: telemetry.New(), dir: t.TempDir()}
	jn, err := journal.Open(r.dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	arb, err := New(policy.MCKP{}, addrs(6), r.bus)
	if err != nil {
		t.Fatal(err)
	}
	r.arb = arb.Instrument(r.reg).WithQuarantine(1).WithJournal(jn)
	for i := 0; i < jobs; i++ {
		if _, err := r.arb.JobStarted(app(t, "HACC", fmt.Sprintf("job%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// records returns the journal's post-snapshot records.
func (r *tableRig) records(t *testing.T) []journal.Record {
	t.Helper()
	_, recs, _, err := journal.Replay(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// observed is everything a cell is judged on.
type observed struct {
	counters map[string]int64
	gauges   map[string]int64
	version  uint64
	records  int
	assign   map[string][]string
}

func (r *tableRig) observe(t *testing.T) observed {
	t.Helper()
	o := observed{counters: map[string]int64{}, gauges: map[string]int64{}}
	for _, name := range append(eventCounters[:], "arbiter_solves_total", "arbiter_mappings_published_total", "arbiter_kept_previous_mapping_total") {
		o.counters[name] = r.reg.Counter(name).Value()
	}
	for _, name := range []string{"arbiter_ions_down", "arbiter_ions_live", "arbiter_ions_overloaded",
		"arbiter_ions_draining", "arbiter_quarantine_ions", "arbiter_quarantine_floor_held"} {
		o.gauges[name] = r.reg.Gauge(name).Value()
	}
	o.version = r.bus.Current().Version
	o.records = len(r.records(t))
	o.assign = r.arb.Current()
	return o
}

// reach drives node into state s by the canonical prefix: the health
// marks while the node is still visible, then the one hiding event.
func (r *tableRig) reach(t *testing.T, node string, s nodestate.State) {
	t.Helper()
	for _, step := range []struct {
		bit nodestate.State
		ev  nodestate.Event
	}{{sOvld, nodestate.Hot}, {sDegr, nodestate.Slow}, {sDrng, nodestate.DrainStart}, {sDown, nodestate.Fail}} {
		if s.Has(step.bit) {
			if err := r.arb.Transition(node, step.ev); err != nil {
				t.Fatalf("reaching %v: %v: %v", s, step.ev, err)
			}
		}
	}
	if got, _ := r.arb.StateOf(node); got != s {
		t.Fatalf("canonical prefix reached %v, want %v", got, s)
	}
}

func b(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// TestTransitionTableMarkOverloadDrainQuarantine walks all 12 reachable
// states × 8 events × {no job, one job}. (The name keeps the table inside
// every suite that ran the per-method cases it replaced: chaos selects
// Mark, storm Overload, elastic Drain, grayfail Quarantine.)
func TestTransitionTableMarkOverloadDrainQuarantine(t *testing.T) {
	states := 0
	for s := nodestate.State(0); s < 16; s++ {
		if s.Has(sDown) && s.Has(sDrng) {
			continue // unreachable: Fail ends a drain, DrainStart is refused while down
		}
		states++
		for ev := nodestate.Event(0); ev < nodestate.NumEvents; ev++ {
			for jobs := 0; jobs <= 1; jobs++ {
				s, ev, jobs := s, ev, jobs
				t.Run(fmt.Sprintf("%v/%v/jobs=%d", s, ev, jobs), func(t *testing.T) {
					r := newTableRig(t, jobs)
					node := r.arb.Pool()[0]
					r.reach(t, node, s)
					before := r.observe(t)
					want := wantCell(s, ev)

					err := r.arb.Transition(node, ev)
					if want.refused != errors.Is(err, ErrIONDown) || (!want.refused && err != nil) {
						t.Fatalf("err = %v, want refused = %v", err, want.refused)
					}
					after := r.observe(t)
					if got, _ := r.arb.StateOf(node); got != want.next {
						t.Fatalf("next state = %v, want %v", got, want.next)
					}

					// Counters: the event's own, the aborted drain of a
					// node that died mid-drain, solves and publishes.
					solved := b(want.solves && jobs > 0)
					for name, was := range before.counters {
						delta := int64(0)
						switch name {
						case eventCounters[ev]:
							delta = b(want.moved)
						case "arbiter_solves_total", "arbiter_mappings_published_total":
							delta = solved
						}
						if name == "arbiter_drains_aborted_total" && want.aborted {
							delta = 1
						}
						if got := after.counters[name] - was; got != delta {
							t.Errorf("%s moved by %d, want %d", name, got, delta)
						}
					}
					if got := int64(after.version - before.version); got != solved {
						t.Errorf("bus version moved by %d, want %d", got, solved)
					}

					// Journal: the event's record, then the publish.
					var kinds []journal.Kind
					for _, rec := range r.records(t)[before.records:] {
						kinds = append(kinds, rec.Kind)
					}
					var wantKinds []journal.Kind
					if want.moved {
						wantKinds = append(wantKinds, eventKind[ev])
					}
					if solved == 1 {
						wantKinds = append(wantKinds, journal.KindPublish)
					}
					if !reflect.DeepEqual(kinds, wantKinds) {
						t.Errorf("journal appended %v, want %v", kinds, wantKinds)
					}

					// Gauges follow the state (one marked node in a pool of
					// six; the floor of 1 never has to hold anything back).
					quarantined := want.next.Has(sDegr) && !want.next.Hidden()
					for name, v := range map[string]int64{
						"arbiter_ions_down":             b(want.next.Has(sDown)),
						"arbiter_ions_live":             6 - b(want.next.Has(sDown)),
						"arbiter_ions_overloaded":       b(want.next.Has(sOvld)),
						"arbiter_ions_draining":         b(want.next.Has(sDrng)),
						"arbiter_quarantine_ions":       b(quarantined),
						"arbiter_quarantine_floor_held": 0,
					} {
						if got := after.gauges[name]; got != v {
							t.Errorf("%s = %d, want %d", name, got, v)
						}
					}
					if q := r.arb.Quarantined(); (len(q) == 1) != quarantined {
						t.Errorf("Quarantined() = %v, want the node listed: %v", q, quarantined)
					}
					for mask, name := range map[nodestate.State]string{sDown: "down", sDrng: "draining", sDegr: "degraded", sOvld: "overloaded"} {
						if got := r.arb.NodesIn(mask); (len(got) == 1) != want.next.Has(mask) {
							t.Errorf("NodesIn(%s) = %v with the node in %v", name, got, want.next)
						}
					}

					// The mapping: untouched unless the cell solves, and
					// never routing to a hidden or quarantined node.
					if solved == 0 && !reflect.DeepEqual(after.assign, before.assign) {
						t.Errorf("allocation changed without a solve: %v → %v", before.assign, after.assign)
					}
					if hit := assignedTo(after.assign, node); len(hit) != 0 && (want.next.Hidden() || quarantined) {
						t.Errorf("node in %v still assigned to %v", want.next, hit)
					}
				})
			}
		}
	}
	if states != 12 {
		t.Fatalf("walked %d states, want the 12 reachable ones", states)
	}
}

// TestTransitionUnknownIONMarkDrain: every event on an address outside
// the pool is ErrUnknownION and touches nothing.
func TestTransitionUnknownIONMarkDrain(t *testing.T) {
	r := newTableRig(t, 1)
	before := r.observe(t)
	for ev := nodestate.Event(0); ev < nodestate.NumEvents; ev++ {
		if err := r.arb.Transition("nowhere:1", ev); !errors.Is(err, ErrUnknownION) {
			t.Errorf("%v on an unknown address: %v, want ErrUnknownION", ev, err)
		}
	}
	if _, ok := r.arb.StateOf("nowhere:1"); ok {
		t.Error("StateOf reports an unknown address as a member")
	}
	if after := r.observe(t); !reflect.DeepEqual(after, before) {
		t.Errorf("events on an unknown address left a trace:\n before %+v\n after  %+v", before, after)
	}
}

// TestMarkHeldWhileDrainingTakesEffectAfterDrainAbort: the prober flips
// its own state when it reports a mark and will not report it again, so a
// mark that arrives while the node is draining must survive the drain. If
// the scaler then aborts the drain the node returns to the allocatable
// pool *marked*: a hot node is handed out last, a slow one is quarantined.
func TestMarkHeldWhileDrainingTakesEffectAfterDrainAbort(t *testing.T) {
	bus := mapping.NewBus()
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg).WithQuarantine(2)
	if _, err := arb.JobStarted(app(t, "HACC", "hacc1")); err != nil {
		t.Fatal(err)
	}
	hot, slow := arb.Pool()[0], arb.Pool()[1] // first in pool order: first to be handed out
	for _, node := range []string{hot, slow} {
		if err := arb.Transition(node, nodestate.DrainStart); err != nil {
			t.Fatal(err)
		}
	}
	version, solves, during := bus.Current().Version, reg.Counter("arbiter_solves_total").Value(), arb.Current()
	if err := arb.Transition(hot, nodestate.Hot); err != nil {
		t.Fatal(err)
	}
	if err := arb.Transition(slow, nodestate.Slow); err != nil {
		t.Fatal(err)
	}
	if got := bus.Current().Version; got != version {
		t.Fatalf("a mark on a draining node published: version %d → %d", version, got)
	}
	if got := reg.Counter("arbiter_solves_total").Value(); got != solves {
		t.Fatalf("a mark on a draining node re-solved: %d → %d", solves, got)
	}
	if got := arb.Current(); !reflect.DeepEqual(got, during) {
		t.Fatalf("a mark on a draining node moved the allocation: %v → %v", during, got)
	}
	if st, _ := arb.StateOf(hot); st != sDrng|sOvld {
		t.Fatalf("hot node is %v, want draining+overloaded (mark held, not dropped)", st)
	}
	if st, _ := arb.StateOf(slow); st != sDrng|sDegr {
		t.Fatalf("slow node is %v, want draining+degraded (mark held, not dropped)", st)
	}

	// The scaler gives up on both drains.
	for _, node := range []string{hot, slow} {
		if err := arb.Transition(node, nodestate.DrainAbort); err != nil {
			t.Fatal(err)
		}
	}
	if q := arb.Quarantined(); len(q) != 1 || q[0] != slow {
		t.Fatalf("Quarantined() = %v, want [%s]: the held Slow takes effect once the drain is gone", q, slow)
	}
	// A new job takes free nodes in pool order, healthy ones first: it
	// must pass over the first two although they are free.
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	free := 12 - len(arb.Current()["hacc1"])
	if len(got) > free-2 {
		t.Skipf("ior1 took %d of %d free nodes; cannot observe preference", len(got), free)
	}
	for _, node := range []string{hot, slow} {
		if hit := assignedTo(arb.Current(), node); len(hit) != 0 {
			t.Fatalf("marked node %s handed to %v although healthy nodes were free", node, hit)
		}
	}
}
