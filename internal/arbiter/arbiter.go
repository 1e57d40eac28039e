// Package arbiter is the live policy-solver service of the reproduction:
// the component that, on every change of the running-job set, re-runs the
// arbitration policy and publishes a new application → I/O-node mapping for
// the forwarding clients (the paper's solver that "runs on a separate node,
// possibly the same used by a job manager").
//
// Allocation decisions are counts; the arbiter turns them into concrete
// I/O-node addresses, keeping an application's existing nodes when its
// count shrinks or is unchanged so remaps disturb as little routing as
// possible, and never sharing one I/O node between applications.
package arbiter

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Typed failures, distinguishable with errors.Is so callers (the health
// loop, job managers) can react programmatically instead of parsing text.
var (
	// ErrUnknownJob reports an operation on a job id that is not running.
	ErrUnknownJob = errors.New("arbiter: unknown job")
	// ErrUnknownION reports an event for an address outside the pool.
	ErrUnknownION = errors.New("arbiter: unknown I/O node")
	// ErrNoLiveIONs reports arbitration over an empty or fully-down pool.
	ErrNoLiveIONs = errors.New("arbiter: no live I/O nodes")
	// ErrIONDown reports a DrainStart for a node that is already down —
	// there is nothing graceful left to do (nodestate.ErrDown, as the
	// arbiter's callers see it).
	ErrIONDown = errors.New("arbiter: I/O node is down")
	// ErrIONAssigned reports a removal of a node still routed to some job.
	ErrIONAssigned = errors.New("arbiter: I/O node still assigned")
)

// Arbiter owns a pool of I/O-node addresses and a mapping bus.
type Arbiter struct {
	pol policy.Policy
	bus *mapping.Bus

	// weightOf, when set, supplies each application's QoS utility weight
	// at solve time (see WithWeights); nil means unweighted arbitration.
	weightOf func(id string) float64

	mu sync.Mutex
	// nodes is the pool in stable order (the zero State is a healthy node).
	nodes []member
	// quarFloor bounds the quarantine: degraded nodes are excluded from
	// allocation only while at least quarFloor allocatable nodes remain,
	// so correlated slowness deprioritizes the tail instead of emptying
	// the pool. Always ≥ 1; WithQuarantine raises it.
	quarFloor int
	// running is sorted by ID and holds jobs as registered: QoS weights
	// are stamped into rearbitrate's apps scratch, never into it.
	running []policy.Application
	// assign (app → addresses) is rebuilt in place by each solve, in
	// windows of spareSlots while slots backs the current ones; the two
	// then swap. The bus, Current and the journal copy it under a.mu.
	assign            map[string][]string
	slots, spareSlots []string
	apps              []policy.Application // rearbitrate's scratch, as are wins and free
	wins              [][]string
	free              []string
	// SolveTime records the duration of the last policy invocation (the
	// paper reports 399 µs for its live case).
	lastSolve time.Duration

	// jn, when set via WithJournal, receives every control-plane
	// transition before it becomes visible on the bus; epoch tracks the
	// version the next publish will carry (journaled write-ahead).
	jn    *journal.Journal
	epoch uint64

	// reg is the registry Instrument attached; WithQuarantine uses it to
	// register the quarantine series lazily (only a stack that opts into
	// gray-failure handling exposes arbiter_quarantine_*).
	reg *telemetry.Registry

	// Telemetry handles (nil until Instrument; all no-ops then).
	tel struct {
		solves, solveErrors, published *telemetry.Counter
		keptMappings                   *telemetry.Counter
		// marks[ev] counts the state changes event ev caused; Slow and
		// Restore stay nil until WithQuarantine.
		marks                            [nodestate.NumEvents]*telemetry.Counter
		ionsAdded, ionsRemoved           *telemetry.Counter
		jobsRunning                      *telemetry.Gauge
		ionsDown, ionsLive, ionsOverload *telemetry.Gauge
		ionsDraining                     *telemetry.Gauge
		ionsQuarantined, quarFloorHeld   *telemetry.Gauge // nil until WithQuarantine
		solveLatency                     *telemetry.Histogram
	}
}

// member is one pool node: its address, its condition, and the class
// allocatable last gave it.
type member struct {
	addr  string
	st    nodestate.State
	class class
}

// class is a member's place in the hand-out order (see allocatable).
type class uint8

const (
	hidden        class = iota // down or draining: never handed out
	quarantined                // degraded, excluded while the floor allows
	kept                       // deprioritized or healthy, and kept by an app this solve
	deprioritized              // overloaded, or degraded past the floor: handed out last
	healthy                    // handed out first
)

// New creates an arbiter over the given policy, I/O-node addresses, and
// mapping bus.
func New(pol policy.Policy, ionAddrs []string, bus *mapping.Bus) (*Arbiter, error) {
	if pol == nil {
		return nil, errors.New("arbiter: policy is required")
	}
	if bus == nil {
		return nil, errors.New("arbiter: mapping bus is required")
	}
	a := &Arbiter{
		pol:       pol,
		bus:       bus,
		nodes:     make([]member, 0, len(ionAddrs)),
		quarFloor: 1,
		assign:    map[string][]string{},
	}
	for _, addr := range ionAddrs {
		if err := a.addMember(addr); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// PolicyName reports the active policy.
func (a *Arbiter) PolicyName() string { return a.pol.Name() }

// Instrument attaches arbitration metrics to reg: solve count/latency,
// solver failures, published mappings, re-arbitration fallbacks where the
// pruned previous mapping was kept, and the running-job gauge. Returns a
// for chaining; reg may be nil.
func (a *Arbiter) Instrument(reg *telemetry.Registry) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reg = reg
	a.tel.solves = reg.Counter("arbiter_solves_total")
	a.tel.solveErrors = reg.Counter("arbiter_solve_errors_total")
	a.tel.published = reg.Counter("arbiter_mappings_published_total")
	a.tel.keptMappings = reg.Counter("arbiter_kept_previous_mapping_total")
	a.tel.marks[nodestate.Fail] = reg.Counter("arbiter_marked_down_total")
	a.tel.marks[nodestate.Rise] = reg.Counter("arbiter_marked_up_total")
	a.tel.marks[nodestate.Hot] = reg.Counter("arbiter_marked_overloaded_total")
	a.tel.marks[nodestate.Cool] = reg.Counter("arbiter_overload_recovered_total")
	a.tel.marks[nodestate.DrainStart] = reg.Counter("arbiter_drains_started_total")
	a.tel.marks[nodestate.DrainAbort] = reg.Counter("arbiter_drains_aborted_total")
	a.tel.ionsAdded = reg.Counter("arbiter_ions_added_total")
	a.tel.ionsRemoved = reg.Counter("arbiter_ions_removed_total")
	a.tel.jobsRunning = reg.Gauge("arbiter_jobs_running")
	a.tel.ionsDown = reg.Gauge("arbiter_ions_down")
	a.tel.ionsLive = reg.Gauge("arbiter_ions_live")
	a.tel.ionsOverload = reg.Gauge("arbiter_ions_overloaded")
	a.tel.ionsDraining = reg.Gauge("arbiter_ions_draining")
	a.tel.ionsLive.Set(int64(len(a.nodes)))
	a.tel.solveLatency = reg.Histogram("arbiter_solve_latency_seconds", telemetry.LatencyBuckets())
	return a
}

// WithWeights installs a QoS weight source (typically qos.Registry.Weight):
// on every solve, each application's Weight is stamped from it before the
// policy runs, so class weights apply to jobs registered through any call
// site without those call sites knowing about QoS. An application that
// already carries an explicit non-zero Weight keeps it. Returns a for
// chaining; w may be nil (no weighting). Call before the arbiter is
// shared.
func (a *Arbiter) WithWeights(w func(id string) float64) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.weightOf = w
	return a
}

// WithQuarantine sets the live-capacity floor for gray-failure
// quarantine: a Slow event excludes a node from new allocations only
// while at least floor allocatable nodes remain, so correlated
// slowness (a sick rack, a shared-switch brownout) degrades to
// deprioritization instead of an empty pool. floor values below 1 are
// raised to 1 — the pool can never be quarantined empty. Also
// registers the arbiter_quarantine_* series on the registry given to
// Instrument (call Instrument first); a stack that never opts into
// gray-failure handling exposes none of them. Returns a for chaining;
// call before the arbiter is shared.
func (a *Arbiter) WithQuarantine(floor int) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if floor < 1 {
		floor = 1
	}
	a.quarFloor = floor
	reg := a.reg
	a.tel.marks[nodestate.Slow] = reg.Counter("arbiter_quarantine_marked_total")
	a.tel.marks[nodestate.Restore] = reg.Counter("arbiter_quarantine_restored_total")
	a.tel.ionsQuarantined = reg.Gauge("arbiter_quarantine_ions")
	a.tel.quarFloorHeld = reg.Gauge("arbiter_quarantine_floor_held")
	return a
}

// LastSolveTime reports how long the most recent policy invocation took.
func (a *Arbiter) LastSolveTime() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSolve
}

// JobStarted registers a new running application, re-arbitrates, and
// publishes the updated mapping. It returns the addresses assigned to the
// new application.
func (a *Arbiter) JobStarted(app policy.Application) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.job(app.ID); dup {
		return nil, fmt.Errorf("arbiter: job %s already running", app.ID)
	}
	if visible, down, draining, _ := a.tally(); visible == 0 {
		return nil, fmt.Errorf("%w: cannot start %s (pool %d, down %d, draining %d)",
			ErrNoLiveIONs, app.ID, len(a.nodes), down, draining)
	}
	a.addJob(app)
	// Intent first: if the crash lands between this append and the solve,
	// recovery sees the job and solves for it; if the solve below fails,
	// the compensating record undoes the intent.
	if a.jn != nil { // appRecord copies the curve: build it only to journal it
		a.record(journal.Record{Kind: journal.KindJobStarted, App: appRecord(app)})
	}
	if err := a.rearbitrate(); err != nil {
		a.dropJob(app.ID)
		a.record(journal.Record{Kind: journal.KindJobFinished, Job: app.ID})
		a.tel.jobsRunning.Set(int64(len(a.running)))
		return nil, err
	}
	a.tel.jobsRunning.Set(int64(len(a.running)))
	return append([]string(nil), a.assign[app.ID]...), nil
}

// JobFinished removes an application and re-arbitrates for the remainder.
// If re-arbitration fails, the finished job stays removed and the previous
// assignment — pruned of the finished job — is published, so clients never
// route on a mapping that still advertises the finished job's I/O nodes
// and the remaining jobs keep their established routes.
func (a *Arbiter) JobFinished(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.dropJob(id) {
		return fmt.Errorf("%w: %s is not running", ErrUnknownJob, id)
	}
	a.record(journal.Record{Kind: journal.KindJobFinished, Job: id})
	a.tel.jobsRunning.Set(int64(len(a.running)))
	if len(a.running) == 0 {
		clear(a.assign)
		a.publish()
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		// rearbitrate mutates a.assign only on success, so the pruned
		// previous assignment is still consistent (the finished job's
		// nodes simply idle until the next successful solve).
		a.tel.keptMappings.Inc()
		a.publish()
		return fmt.Errorf("arbiter: job %s finished, previous mapping kept: %w", id, err)
	}
	return nil
}

// Current returns the present address assignment.
func (a *Arbiter) Current() map[string][]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][]string, len(a.assign))
	for app, addrs := range a.assign {
		out[app] = append([]string(nil), addrs...)
	}
	return out
}

// tally counts, in one pass, the pool members that are visible (neither
// down nor draining), down, draining and overloaded. Caller holds the lock.
func (a *Arbiter) tally() (visible, down, draining, overloaded int) {
	for _, m := range a.nodes {
		if !m.st.Hidden() {
			visible++
		}
		if m.st.Has(nodestate.Down) {
			down++
		}
		if m.st.Has(nodestate.Draining) {
			draining++
		}
		if m.st.Has(nodestate.Overloaded) {
			overloaded++
		}
	}
	return visible, down, draining, overloaded
}

// find returns the pool index of addr, or -1. Caller holds the lock.
func (a *Arbiter) find(addr string) int {
	return slices.IndexFunc(a.nodes, func(m member) bool { return m.addr == addr })
}

// job returns where id is, or would be inserted, in the ID-sorted running
// list, and whether it is there. Caller holds the lock.
func (a *Arbiter) job(id string) (int, bool) {
	return slices.BinarySearchFunc(a.running, id, func(app policy.Application, id string) int {
		return strings.Compare(app.ID, id)
	})
}

// addJob puts app in its place in the running list, replacing a job of
// the same ID. Caller holds the lock.
func (a *Arbiter) addJob(app policy.Application) {
	if i, dup := a.job(app.ID); dup {
		a.running[i] = app
	} else {
		a.running = slices.Insert(a.running, i, app)
	}
}

// dropJob removes id from the running list and the assignment, and
// reports whether it was running. Caller holds the lock.
func (a *Arbiter) dropJob(id string) bool {
	i, ok := a.job(id)
	if ok {
		a.running = slices.Delete(a.running, i, i+1)
		delete(a.assign, id)
	}
	return ok
}

// addMember appends a healthy node to the pool; a duplicate is refused.
// Caller holds the lock.
func (a *Arbiter) addMember(addr string) error {
	if a.find(addr) >= 0 {
		return fmt.Errorf("arbiter: duplicate I/O node %s", addr)
	}
	a.nodes = append(a.nodes, member{addr: addr})
	return nil
}

// allocatable gives every member its class — whether arbitration may
// hand it out, and in which turn — and returns how many it may. The
// quarantine is the degraded nodes, taken in stable pool order, excluded
// only while the remaining allocatable capacity stays at or above the
// floor. The hand-out order is healthy nodes in stable pool order, then
// the deprioritized ones — overloaded nodes, and degraded ones the floor
// held back — so they absorb load only when the healthy pool cannot cover
// the allocation (capacity is deprioritized, never destroyed). Caller
// holds the lock.
func (a *Arbiter) allocatable() (avail int) {
	visible, _, _, _ := a.tally()
	room := visible - a.quarFloor // how many nodes the floor lets the quarantine take
	for i := range a.nodes {
		m := &a.nodes[i]
		switch {
		case m.st.Hidden():
			m.class = hidden
		case m.st.Has(nodestate.Degraded) && room > 0:
			m.class = quarantined
			room--
		case m.st.Has(nodestate.Degraded | nodestate.Overloaded):
			m.class = deprioritized
		default:
			m.class = healthy
		}
		if m.class >= deprioritized {
			avail++
		}
	}
	return avail
}

// addrsWhere lists the pool members pick selects, in stable pool order.
// Caller holds the lock.
func (a *Arbiter) addrsWhere(pick func(member) bool) []string {
	var out []string
	for _, m := range a.nodes {
		if pick(m) {
			out = append(out, m.addr)
		}
	}
	return out
}

// NodesIn returns the pool members that are in any condition of mask, in
// stable pool order — NodesIn(nodestate.Down) is the down set. The
// degraded set is the marks, not the effective quarantine (a mark held
// back by the capacity floor is still listed; see Quarantined).
func (a *Arbiter) NodesIn(mask nodestate.State) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addrsWhere(func(m member) bool { return m.st.Has(mask) })
}

// StateOf reports the condition of the pool member at addr; ok is false
// for an address outside the pool.
func (a *Arbiter) StateOf(addr string) (st nodestate.State, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := a.find(addr); i >= 0 {
		return a.nodes[i].st, true
	}
	return 0, false
}

// Quarantined returns the addresses currently excluded from allocation
// by the gray-failure plane, in stable pool order: the degraded marks
// minus whatever the capacity floor held back. The floor makes it a fact
// about the pool, not about one node, so it is not a State bit.
func (a *Arbiter) Quarantined() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allocatable()
	return a.addrsWhere(func(m member) bool { return m.class == quarantined })
}

// updatePoolGauges refreshes the live/down/overloaded/draining gauges.
// Caller holds the lock.
func (a *Arbiter) updatePoolGauges() {
	_, down, draining, overloaded := a.tally()
	a.tel.ionsDown.Set(int64(down))
	a.tel.ionsLive.Set(int64(len(a.nodes) - down))
	a.tel.ionsOverload.Set(int64(overloaded))
	a.tel.ionsDraining.Set(int64(draining))
	if a.tel.ionsQuarantined != nil {
		a.allocatable()
		quar, held := 0, 0 // held: degraded, yet allocatable — the floor held them back
		for _, m := range a.nodes {
			switch {
			case m.class == quarantined:
				quar++
			case m.class >= deprioritized && m.st.Has(nodestate.Degraded):
				held++
			}
		}
		a.tel.ionsQuarantined.Set(int64(quar))
		a.tel.quarFloorHeld.Set(int64(held))
	}
}

// without removes every occurrence of addr from addrs in place. The
// arbiter owns its address slices: the bus, Current and the journal each
// take a copy, so no reader outside a.mu sees the edit.
func without(addrs []string, addr string) []string {
	return slices.DeleteFunc(addrs, func(x string) bool { return x == addr })
}

// effects is the arbiter's half of the state × event table (DESIGN §12):
// what Transition does once the node's bit has moved. By default an event
// re-solves when jobs are running and, if the solve fails, keeps the
// previous mapping — still valid, the node changed preference, not
// existence. The fields are the exceptions.
var effects = [nodestate.NumEvents]struct {
	// held: on a hidden (down or draining) node the event is only
	// recorded — the node is outside allocatable() either way, so the
	// solve's inputs are unchanged; Rise or DrainAbort picks the mark up.
	held bool
	// prune: the node is stripped from every assignment before any solve,
	// and a failed solve publishes that pruned mapping: "no job maps to a
	// down node" is enforced before the policy, not by it.
	prune bool
	// rollback: a failed solve undoes the event (journaling DrainAbort)
	// and refuses it — the caller must not decommission a node whose
	// traffic could not be moved. Such an event is counted only once it
	// has stuck.
	rollback bool
}{
	nodestate.Fail:       {prune: true},
	nodestate.DrainStart: {rollback: true},
	nodestate.Slow:       {held: true},
	nodestate.Restore:    {held: true},
	nodestate.Hot:        {held: true},
	nodestate.Cool:       {held: true},
}

// Transition feeds one node event — a debounced health edge from the
// prober, a drain decision from the scaler — into the pool and
// re-arbitrates. nodestate.Apply decides the next state; a repeated event
// changes nothing and returns nil without journaling, counting or
// solving; an address outside the pool is ErrUnknownION.
//
// Fail and DrainStart hide the node from every allocation — DrainStart a
// healthy one, which keeps serving what is in flight while its traffic
// migrates under the no-shrink invariant (refused with ErrIONDown on a
// down node); Rise and DrainAbort bring it back. Hot deprioritizes the
// node without removing it — a saturated node still completes work, and
// removing capacity under peak load feeds the overload. Slow quarantines
// it, down to the capacity floor (WithQuarantine), past which it is only
// deprioritized. What each event does beyond moving its bit is the
// effects table above (DESIGN §12 has it as one table).
//
// Apart from the two refusals an error is advisory: the event is recorded
// and a mapping that honours the invariants stands.
func (a *Arbiter) Transition(addr string, ev nodestate.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, changed, err := a.apply(addr, ev)
	if err != nil || !changed {
		return err
	}
	fx := effects[ev]
	if len(a.running) > 0 && !(fx.held && prev.Hidden()) {
		if err := a.rearbitrate(); err != nil {
			if fx.rollback {
				a.nodes[a.find(addr)].st = prev
				a.record(journal.NodeEvent(addr, nodestate.DrainAbort))
				a.updatePoolGauges()
				return fmt.Errorf("arbiter: %s of %s refused, mapping unchanged: %w", ev, addr, err)
			}
			if fx.prune {
				a.publish()
			}
			a.tel.keptMappings.Inc()
			return fmt.Errorf("arbiter: %s on %s recorded, previous mapping kept: %w", ev, addr, err)
		}
	}
	if fx.rollback {
		a.tel.marks[ev].Inc() // past the point of rollback: now it counts
	}
	return nil
}

// apply is Transition without the solve — guard, next state, journal
// record, counter, gauges, and a Fail's assignment prune — shared with
// Recover, which replays and reconciles events and then solves once.
// Caller holds the lock.
func (a *Arbiter) apply(addr string, ev nodestate.Event) (prev nodestate.State, changed bool, err error) {
	i := a.find(addr)
	if i < 0 {
		return 0, false, fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	prev = a.nodes[i].st
	next, changed, err := prev.Apply(ev)
	if err != nil {
		return prev, false, fmt.Errorf("%w: %s of %s refused", ErrIONDown, ev, addr)
	}
	if !changed {
		return prev, false, nil
	}
	a.nodes[i].st = next
	// Prune before recording: a compaction snapshot that falls due on
	// this record must not list the node as assigned.
	if effects[ev].prune {
		for app, addrs := range a.assign {
			a.assign[app] = without(addrs, addr)
		}
	}
	// Intent first, like JobStarted: a crash before the solve must leave
	// the event in the journal for recovery to act on.
	a.record(journal.NodeEvent(addr, ev))
	if !effects[ev].rollback {
		a.tel.marks[ev].Inc()
	}
	if ev == nodestate.Fail && prev.Has(nodestate.Draining) {
		a.tel.marks[nodestate.DrainAbort].Inc() // the node died mid-drain
	}
	a.updatePoolGauges()
	return prev, true, nil
}

// AddION grows the pool with a freshly provisioned node and re-arbitrates
// so running jobs can spread onto it. Duplicates are refused. If the
// follow-up solve fails the node stays in the pool and the previous
// mapping stays published (still valid — the new node idles until the
// next successful solve), so the error is advisory.
func (a *Arbiter) AddION(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr == "" {
		return errors.New("arbiter: empty I/O node address")
	}
	if err := a.addMember(addr); err != nil {
		return err
	}
	a.record(journal.Record{Kind: journal.KindAddION, Addr: addr})
	a.tel.ionsAdded.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s added, previous mapping kept: %w", addr, err)
	}
	return nil
}

// RemoveION forgets addr entirely — pool membership and every condition
// it was in. It is the terminal step of a drain (or the
// disposal of a node that never rose) and is refused with ErrIONAssigned
// while any job still routes to addr: remove only what arbitration can no
// longer hand out. No re-arbitration runs — by construction nothing was
// assigned to the node.
func (a *Arbiter) RemoveION(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.find(addr)
	if i < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	for app, addrs := range a.assign {
		if slices.Contains(addrs, addr) {
			return fmt.Errorf("%w: %s still routes %s", ErrIONAssigned, addr, app)
		}
	}
	a.nodes = slices.Delete(a.nodes, i, i+1)
	a.record(journal.Record{Kind: journal.KindRemoveION, Addr: addr})
	a.tel.ionsRemoved.Inc()
	a.updatePoolGauges()
	return nil
}

// Pool returns the current pool addresses (including down and draining
// members), in stable order.
func (a *Arbiter) Pool() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addrsWhere(func(member) bool { return true })
}

// rearbitrate recomputes counts with the policy and maps them to concrete
// addresses. Caller holds the lock.
func (a *Arbiter) rearbitrate() error {
	apps := append(a.apps[:0], a.running...)
	for i := range apps {
		if a.weightOf != nil && apps[i].Weight == 0 {
			apps[i].Weight = a.weightOf(apps[i].ID)
		}
	}
	a.apps = apps

	avail := a.allocatable()
	if avail == 0 {
		a.tel.solveErrors.Inc()
		_, down, draining, _ := a.tally()
		return fmt.Errorf("%w: %d of %d marked down, %d draining",
			ErrNoLiveIONs, down, len(a.nodes), draining)
	}
	start := time.Now()
	alloc, err := a.pol.Allocate(apps, avail)
	a.tel.solves.Inc()
	a.tel.solveLatency.ObserveDuration(time.Since(start))
	if err != nil {
		a.tel.solveErrors.Inc()
		return fmt.Errorf("arbiter: %s: %w", a.pol.Name(), err)
	}
	a.lastSolve = time.Since(start)

	// Phase 1: shrink or keep — retain a stable prefix of each app's
	// current addresses, skipping any node marked down, overloaded,
	// draining, or quarantined in the meantime. Dropping overloaded
	// nodes from the kept prefix is what steers load away; dropping
	// draining ones is what migrates traffic off a node headed for
	// decommission; dropping quarantined ones is what re-steers apps
	// away from a fail-slow node. The app re-grows in phase 2, which
	// hands out healthy capacity first. Each app's addresses are a window
	// of the spare backing whose capacity is the app's count.
	if total := alloc.Total(); cap(a.spareSlots) < total {
		a.spareSlots = make([]string, total)
	}
	wins, off := a.wins[:0], 0
	for _, app := range apps {
		want := alloc[app.ID]
		keep := a.spareSlots[off : off : off+want]
		off += want
		for _, addr := range a.assign[app.ID] {
			if len(keep) == want {
				break
			}
			if i := a.find(addr); i >= 0 && a.nodes[i].class >= deprioritized && !a.nodes[i].st.Has(nodestate.Overloaded) {
				a.nodes[i].class = kept
				keep = append(keep, addr)
			}
		}
		wins = append(wins, keep)
	}
	a.wins = wins
	// Phase 2: grow from the free available pool in hand-out order —
	// healthy nodes first, deprioritized ones last (see allocatable).
	// Draining and quarantined nodes are not in the available pool at all.
	free := a.free[:0]
	for _, c := range [...]class{healthy, deprioritized} {
		for _, m := range a.nodes {
			if m.class == c {
				free = append(free, m.addr)
			}
		}
	}
	a.free = free
	for i, app := range apps {
		for len(wins[i]) < cap(wins[i]) {
			if len(free) == 0 {
				return fmt.Errorf("arbiter: pool exhausted assigning %s (policy overcommitted)", app.ID)
			}
			wins[i] = append(wins[i], free[0])
			free = free[1:]
		}
	}
	clear(a.assign)
	for i, app := range apps {
		a.assign[app.ID] = wins[i]
	}
	a.slots, a.spareSlots = a.spareSlots, a.slots
	a.publish()
	return nil
}

// publish pushes the current assignment to the bus. Caller holds the lock.
// With a journal attached the publish record is appended (and fsynced)
// BEFORE the bus sees the map — true write-ahead: the journal's epoch can
// run ahead of what clients observed, never behind, so a recovery fence
// computed from the journal always covers every epoch in the wild.
func (a *Arbiter) publish() {
	a.tel.published.Inc()
	if a.jn != nil {
		a.epoch = a.bus.Version() + 1
		a.record(journal.Record{Kind: journal.KindPublish, Assign: a.assign, Epoch: a.epoch})
	}
	a.bus.Publish(a.assign)
}
