package arbiter

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

// refArbiter is the differential net's reference: the arbiter's event
// handling and solve written over maps — the pool a slice of addresses
// beside a map of conditions, the jobs a map sorted into a fresh list on
// every solve, a new assignment map and backing per decision — without
// journal or telemetry. The live arbiter must match it publish for
// publish.
type refArbiter struct {
	pol       policy.Policy
	bus       *mapping.Bus
	weightOf  func(id string) float64
	pool      []string
	nodes     map[string]nodestate.State
	quarFloor int
	running   map[string]policy.Application
	assign    map[string][]string
}

func newRefArbiter(pol policy.Policy, pool []string, bus *mapping.Bus, weightOf func(string) float64, floor int) *refArbiter {
	a := &refArbiter{
		pol: pol, bus: bus, weightOf: weightOf, quarFloor: floor,
		pool:    slices.Clone(pool),
		nodes:   map[string]nodestate.State{},
		running: map[string]policy.Application{},
		assign:  map[string][]string{},
	}
	for _, addr := range pool {
		a.nodes[addr] = 0
	}
	return a
}

func (a *refArbiter) jobStarted(app policy.Application) ([]string, error) {
	if _, dup := a.running[app.ID]; dup {
		return nil, fmt.Errorf("arbiter: job %s already running", app.ID)
	}
	if a.visible() == 0 {
		return nil, fmt.Errorf("%w: cannot start %s (pool %d, down %d, draining %d)",
			ErrNoLiveIONs, app.ID, len(a.pool), len(a.nodesIn(nodestate.Down)), len(a.nodesIn(nodestate.Draining)))
	}
	a.running[app.ID] = app
	if err := a.rearbitrate(); err != nil {
		delete(a.running, app.ID)
		return nil, err
	}
	return append([]string(nil), a.assign[app.ID]...), nil
}

func (a *refArbiter) jobFinished(id string) error {
	if _, ok := a.running[id]; !ok {
		return fmt.Errorf("%w: %s is not running", ErrUnknownJob, id)
	}
	delete(a.running, id)
	delete(a.assign, id)
	if len(a.running) == 0 {
		a.assign = map[string][]string{}
		a.bus.Publish(a.assign)
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.bus.Publish(a.assign)
		return fmt.Errorf("arbiter: job %s finished, previous mapping kept: %w", id, err)
	}
	return nil
}

func (a *refArbiter) visible() int {
	n := 0
	for _, st := range a.nodes {
		if !st.Hidden() {
			n++
		}
	}
	return n
}

func (a *refArbiter) allocatable() (avail, quar []string) {
	room := a.visible() - a.quarFloor
	avail = make([]string, 0, len(a.pool))
	var last []string
	for _, addr := range a.pool {
		switch st := a.nodes[addr]; {
		case st.Hidden():
		case st.Has(nodestate.Degraded) && len(quar) < room:
			quar = append(quar, addr)
		case st.Has(nodestate.Degraded | nodestate.Overloaded):
			last = append(last, addr)
		default:
			avail = append(avail, addr)
		}
	}
	return append(avail, last...), quar
}

func (a *refArbiter) nodesIn(mask nodestate.State) []string {
	var out []string
	for _, addr := range a.pool {
		if a.nodes[addr].Has(mask) {
			out = append(out, addr)
		}
	}
	return out
}

func (a *refArbiter) transition(addr string, ev nodestate.Event) error {
	prev, changed, err := a.apply(addr, ev)
	if err != nil || !changed {
		return err
	}
	fx := effects[ev]
	if len(a.running) > 0 && !(fx.held && prev.Hidden()) {
		if err := a.rearbitrate(); err != nil {
			if fx.rollback {
				a.nodes[addr] = prev
				return fmt.Errorf("arbiter: %s of %s refused, mapping unchanged: %w", ev, addr, err)
			}
			if fx.prune {
				a.bus.Publish(a.assign)
			}
			return fmt.Errorf("arbiter: %s on %s recorded, previous mapping kept: %w", ev, addr, err)
		}
	}
	return nil
}

func (a *refArbiter) apply(addr string, ev nodestate.Event) (prev nodestate.State, changed bool, err error) {
	prev, ok := a.nodes[addr]
	if !ok {
		return 0, false, fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	next, changed, err := prev.Apply(ev)
	if err != nil {
		return prev, false, fmt.Errorf("%w: %s of %s refused", ErrIONDown, ev, addr)
	}
	if !changed {
		return prev, false, nil
	}
	a.nodes[addr] = next
	if effects[ev].prune {
		for app, addrs := range a.assign {
			a.assign[app] = without(addrs, addr)
		}
	}
	return prev, true, nil
}

func (a *refArbiter) addION(addr string) error {
	if _, dup := a.nodes[addr]; dup {
		return fmt.Errorf("arbiter: duplicate I/O node %s", addr)
	}
	a.pool = append(a.pool, addr)
	a.nodes[addr] = nodestate.Down // allocatable from its first Rise on
	return nil
}

func (a *refArbiter) removeION(addr string) error {
	if _, ok := a.nodes[addr]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	for app, addrs := range a.assign {
		if slices.Contains(addrs, addr) {
			return fmt.Errorf("%w: %s still routes %s", ErrIONAssigned, addr, app)
		}
	}
	a.pool = without(a.pool, addr)
	delete(a.nodes, addr)
	return nil
}

// recover is Recover on the state the journal holds — which is this
// state, with the pool sorted and each job's curve through its journal
// form — including the reconciliation and the fence.
func (a *refArbiter) recover(probe func(addr string) bool) error {
	slices.Sort(a.pool)
	for id, app := range a.running {
		a.running[id] = appFromRecord(*appRecord(app))
	}
	for _, addr := range a.pool {
		if !a.nodes[addr].Has(nodestate.Down) && !probe(addr) {
			a.apply(addr, nodestate.Fail)
		}
	}
	for _, addr := range a.pool {
		a.apply(addr, nodestate.DrainAbort)
	}
	a.bus.Revoke(a.bus.Version() + 1)
	if len(a.running) == 0 {
		a.bus.Publish(a.assign)
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.bus.Publish(a.assign)
		return fmt.Errorf("arbiter: recovered with pruned pre-crash mapping kept: %w", err)
	}
	return nil
}

func (a *refArbiter) rearbitrate() error {
	var apps []policy.Application
	for _, app := range a.running {
		if a.weightOf != nil && app.Weight == 0 {
			app.Weight = a.weightOf(app.ID)
		}
		apps = append(apps, app)
	}
	slices.SortFunc(apps, func(x, y policy.Application) int { return strings.Compare(x.ID, y.ID) })

	avail, quar := a.allocatable()
	if len(avail) == 0 {
		return fmt.Errorf("%w: %d of %d marked down, %d draining",
			ErrNoLiveIONs, len(a.nodesIn(nodestate.Down)), len(a.pool), len(a.nodesIn(nodestate.Draining)))
	}
	alloc, err := a.pol.Allocate(apps, len(avail))
	if err != nil {
		return fmt.Errorf("arbiter: %s: %w", a.pol.Name(), err)
	}
	used := map[string]bool{}
	next := map[string][]string{}
	for _, app := range apps {
		want := alloc[app.ID]
		var keep []string
		for _, addr := range a.assign[app.ID] {
			if len(keep) == want {
				break
			}
			if st := a.nodes[addr]; !st.Hidden() && !st.Has(nodestate.Overloaded) && !slices.Contains(quar, addr) {
				keep = append(keep, addr)
			}
		}
		next[app.ID] = keep
		for _, addr := range keep {
			used[addr] = true
		}
	}
	var free []string
	for _, addr := range avail {
		if !used[addr] {
			free = append(free, addr)
		}
	}
	for _, app := range apps {
		for len(next[app.ID]) < alloc[app.ID] {
			if len(free) == 0 {
				return fmt.Errorf("arbiter: pool exhausted assigning %s (policy overcommitted)", app.ID)
			}
			next[app.ID] = append(next[app.ID], free[0])
			free = free[1:]
		}
	}
	a.assign = next
	a.bus.Publish(a.assign)
	return nil
}

// overcommitting is MCKP, except that on an odd number of applications
// it is ONE, which ignores the pool size: with more jobs than allocatable
// nodes the arbiter's hand-out runs dry ("pool exhausted").
type overcommitting struct{}

func (overcommitting) Name() string { return "MCKP|ONE" }

func (overcommitting) Allocate(apps []policy.Application, n int) (policy.Allocation, error) {
	if len(apps)%2 == 1 {
		return policy.One{}.Allocate(apps, n)
	}
	return policy.MCKP{}.Allocate(apps, n)
}

// netPool is the differential net's starting pool, out of order so the
// stable pool order and the sorted order recovery restores differ.
// netAddrs are the addresses a script names: the pool and four more
// ("ion10" sorts before "ion2"), each unknown until AddION brings it in.
// The journal compacts every 64 appends.
var (
	netPool    = []string{"ion3", "ion0", "ion5", "ion1", "ion4", "ion2"}
	netAddrs   = append(slices.Clone(netPool), "ion6", "ion7", "ion10", "netUnknown")
	netOptions = journal.Options{SnapshotEvery: 64, NoSync: true}
)

// Script operations: each step is an op byte and an argument byte.
const (
	opStart = iota
	opStartWeighted
	opStartUncharacterized
	opFinish
	opEvent
	opAddION
	opRemoveION
	opRecover
	numOps
)

// differ runs one script on the live arbiter (journaled, so it can be
// recovered) and the reference, each over its own bus, and fails on the
// first step where they publish a different map or return a different
// error or answer.
type differ struct {
	t        testing.TB
	dir      string
	jn       *journal.Journal
	arb      *Arbiter
	ref      *refArbiter
	bus      *mapping.Bus
	weightOf func(string) float64
	specs    []perfmodel.AppSpec
	// noLive, exhausted and recovers count the steps that reached the
	// failing solves and recovery, so the seeded scripts can show they do.
	noLive, exhausted, recovers int
}

func newDiffer(t testing.TB, weighted bool) *differ {
	d := &differ{t: t, dir: t.TempDir(), bus: mapping.NewBus(), specs: perfmodel.EvaluationApps()}
	if weighted {
		d.weightOf = func(id string) float64 { return float64(1 + id[len(id)-1]%3) } // 1, 2 or 3 by slot
	}
	var err error
	if d.jn, err = journal.Open(d.dir, netOptions); err != nil {
		t.Fatal(err)
	}
	if d.arb, err = New(overcommitting{}, netPool, d.bus); err != nil {
		t.Fatal(err)
	}
	d.arb.WithWeights(d.weightOf).WithQuarantine(2).WithJournal(d.jn)
	d.ref = newRefArbiter(overcommitting{}, netPool, mapping.NewBus(), d.weightOf, 2)
	t.Cleanup(func() { d.jn.Close() })
	return d
}

// step applies one operation to both arbiters and compares them.
func (d *differ) step(i int, op, arg byte) {
	slot := fmt.Sprint("slot", arg%8)
	addr := netAddrs[int(arg)%len(netAddrs)]
	var got, want error
	var gotIONs, wantIONs []string
	var what string
	switch op % numOps {
	case opStart, opStartWeighted, opStartUncharacterized:
		app := policy.FromAppSpec(slot, d.specs[int(arg/8)%len(d.specs)])
		switch op % numOps {
		case opStartWeighted:
			app.Weight = float64(arg%4) + 0.5
		case opStartUncharacterized:
			app.Curve = perfmodel.Curve{}
		}
		what = fmt.Sprintf("JobStarted(%s, weight %v, %d points)", app.ID, app.Weight, app.Curve.Len())
		gotIONs, got = d.arb.JobStarted(app)
		wantIONs, want = d.ref.jobStarted(app)
	case opFinish:
		what = fmt.Sprintf("JobFinished(%s)", slot)
		got, want = d.arb.JobFinished(slot), d.ref.jobFinished(slot)
	case opEvent:
		ev := nodestate.Event(int(arg/16) % int(nodestate.NumEvents))
		what = fmt.Sprintf("Transition(%s, %s)", addr, ev)
		got, want = d.arb.Transition(addr, ev), d.ref.transition(addr, ev)
	case opAddION:
		what = fmt.Sprintf("AddION(%s)", addr)
		got, want = d.arb.AddION(addr), d.ref.addION(addr)
	case opRemoveION:
		what = fmt.Sprintf("RemoveION(%s)", addr)
		got, want = d.arb.RemoveION(addr), d.ref.removeION(addr)
	case opRecover:
		// The node arg names died during the blackout when arg ≥ 128.
		probe := func(a string) bool { return arg < 128 || a != addr }
		what = fmt.Sprintf("Recover(dead %v)", !probe(addr))
		got, want = d.recover(probe), d.ref.recover(probe)
	}
	switch {
	case errors.Is(got, ErrNoLiveIONs):
		d.noLive++
	case got != nil && strings.Contains(got.Error(), "pool exhausted"):
		d.exhausted++
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || !slices.Equal(gotIONs, wantIONs) {
		d.t.Fatalf("step %d %s: live returned %v, %v; reference %v, %v", i, what, gotIONs, got, wantIONs, want)
	}
	if g, w := d.bus.Current(), d.ref.bus.Current(); fmt.Sprint(g.Version, g.Fence, g.IONs) != fmt.Sprint(w.Version, w.Fence, w.IONs) {
		d.t.Fatalf("step %d %s: live published v%d fence %d %v; reference v%d fence %d %v",
			i, what, g.Version, g.Fence, g.IONs, w.Version, w.Fence, w.IONs)
	}
	if g, w := d.state(), d.refState(); g != w {
		d.t.Fatalf("step %d %s: live state\n%s\nreference\n%s", i, what, g, w)
	}
}

// recover crashes the live arbiter and recovers it from its journal onto
// the same bus, as a restarted control plane would.
func (d *differ) recover(probe func(string) bool) error {
	d.jn.Close()
	var err error
	if d.jn, err = journal.Open(d.dir, netOptions); err != nil {
		d.t.Fatal(err)
	}
	arb, err := Recover(RecoverConfig{
		Journal: d.jn, Policy: overcommitting{}, Bus: d.bus, Probe: probe,
		Weights: d.weightOf, QuarantineFloor: 2,
	})
	if arb == nil {
		d.t.Fatalf("Recover: %v", err)
	}
	d.arb = arb
	d.recovers++
	return err
}

// state renders what the live arbiter reports about itself.
func (d *differ) state() string {
	var jobs []string
	for _, app := range d.arb.Running() {
		jobs = append(jobs, fmt.Sprint(app.ID, "@", app.Weight))
	}
	return fmt.Sprint("pool ", d.arb.Pool(), "\ndown ", d.arb.NodesIn(nodestate.Down),
		" draining ", d.arb.NodesIn(nodestate.Draining), " degraded ", d.arb.NodesIn(nodestate.Degraded),
		" overloaded ", d.arb.NodesIn(nodestate.Overloaded), " quarantined ", d.arb.Quarantined(),
		"\njobs ", jobs, "\nassign ", d.arb.Current())
}

// refState renders the same for the reference.
func (d *differ) refState() string {
	r := d.ref
	ids := make([]string, 0, len(r.running))
	for id := range r.running {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var jobs []string
	for _, id := range ids {
		jobs = append(jobs, fmt.Sprint(id, "@", r.running[id].Weight))
	}
	_, quar := r.allocatable()
	assign := map[string][]string{}
	for app, addrs := range r.assign {
		assign[app] = append([]string(nil), addrs...)
	}
	return fmt.Sprint("pool ", r.pool, "\ndown ", r.nodesIn(nodestate.Down),
		" draining ", r.nodesIn(nodestate.Draining), " degraded ", r.nodesIn(nodestate.Degraded),
		" overloaded ", r.nodesIn(nodestate.Overloaded), " quarantined ", quar,
		"\njobs ", jobs, "\nassign ", assign)
}

// runScript replays a script: the first byte picks whether a weight
// source is installed, then every two bytes are one step.
func runScript(t testing.TB, script []byte) *differ {
	d := newDiffer(t, len(script) > 0 && script[0]%2 == 1)
	for i := 1; i+1 < len(script); i += 2 {
		d.step(i/2, script[i], script[i+1])
	}
	return d
}

// seededScript draws steps with job churn, node events and pool changes
// in proportion, and about one Recover in 500 steps.
func seededScript(seed uint64, steps int) []byte {
	rng := rand.New(rand.NewPCG(seed, 35))
	weights := [numOps]int{opStart: 14, opStartWeighted: 5, opStartUncharacterized: 3, opFinish: 20,
		opEvent: 45, opAddION: 6, opRemoveION: 6, opRecover: 1}
	total := 0
	for _, w := range weights {
		total += w
	}
	script := []byte{byte(seed)}
	for len(script) < 1+2*steps {
		r, op := rng.IntN(total), 0
		for r >= weights[op] {
			r -= weights[op]
			op++
		}
		script = append(script, byte(op), byte(rng.IntN(256)))
	}
	return script
}

// TestArbiterMatchesReference replays seeded scripts of 2,500 steps
// through the live arbiter and the reference: job starts (plain, with an
// explicit weight, and uncharacterized) and finishes, with and without a
// weight source, every node event under quarantine floor 2, pool growth
// and removal, solves that fail (no live nodes, pool exhausted) and
// recoveries from the journal mid-script. Every step must publish the
// same map (version, fence and each app's addresses) and return the same
// error.
func TestArbiterMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := runScript(t, seededScript(seed, 2500))
			if d.noLive == 0 || d.exhausted == 0 || d.recovers == 0 {
				t.Fatalf("script misses a path: %d no-live-node errors, %d exhausted pools, %d recoveries",
					d.noLive, d.exhausted, d.recovers)
			}
		})
	}
}

// FuzzArbiterMatchesReference is TestArbiterMatchesReference driven by
// fuzz bytes, up to 256 steps a script so the fuzzer's minimizer stays
// quick.
func FuzzArbiterMatchesReference(f *testing.F) {
	f.Add(seededScript(5, 200))
	f.Add([]byte{1, opStart, 0, opStart, 9, opEvent, 0, opRecover, 200, opFinish, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		runScript(t, script[:min(len(script), 1+2*256)])
	})
}
