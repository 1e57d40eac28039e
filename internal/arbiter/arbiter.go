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
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Typed failures, distinguishable with errors.Is so callers (the health
// loop, job managers) can react programmatically instead of parsing text.
var (
	// ErrUnknownJob reports an operation on a job id that is not running.
	ErrUnknownJob = errors.New("arbiter: unknown job")
	// ErrUnknownION reports a mark on an address outside the pool.
	ErrUnknownION = errors.New("arbiter: unknown I/O node")
	// ErrNoLiveIONs reports arbitration over an empty or fully-down pool.
	ErrNoLiveIONs = errors.New("arbiter: no live I/O nodes")
	// ErrIONDown reports a drain request for a node that is already down —
	// there is nothing graceful left to do; the caller wanted MarkDown.
	ErrIONDown = errors.New("arbiter: I/O node is down")
	// ErrIONAssigned reports a removal of a node still routed to some job.
	ErrIONAssigned = errors.New("arbiter: I/O node still assigned")
)

// Arbiter owns a pool of I/O-node addresses and a mapping bus.
type Arbiter struct {
	pol  policy.Policy
	bus  *mapping.Bus
	pool []string

	// weightOf, when set, supplies each application's QoS utility weight
	// at solve time (see WithWeights); nil means unweighted arbitration.
	weightOf func(id string) float64

	mu         sync.Mutex
	down       map[string]bool // addresses marked down (health transitions)
	overloaded map[string]bool // addresses shedding load (overload transitions)
	draining   map[string]bool // addresses leaving gracefully (scaler drains)
	degraded   map[string]bool // addresses marked fail-slow (gray-failure plane)
	// quarFloor bounds the quarantine: degraded nodes are excluded from
	// allocation only while at least quarFloor allocatable nodes remain,
	// so correlated slowness deprioritizes the tail instead of emptying
	// the pool. Always ≥ 1; WithQuarantine raises it.
	quarFloor int
	running   map[string]policy.Application
	assign    map[string][]string // app → addresses
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
		solves, solveErrors, published   *telemetry.Counter
		keptMappings                     *telemetry.Counter
		marksDown, marksUp               *telemetry.Counter
		marksOverloaded, marksRecovered  *telemetry.Counter
		drains, drainsAborted            *telemetry.Counter
		ionsAdded, ionsRemoved           *telemetry.Counter
		quarMarks, quarRestores          *telemetry.Counter // nil until WithQuarantine
		jobsRunning                      *telemetry.Gauge
		ionsDown, ionsLive, ionsOverload *telemetry.Gauge
		ionsDraining                     *telemetry.Gauge
		ionsQuarantined, quarFloorHeld   *telemetry.Gauge // nil until WithQuarantine
		solveLatency                     *telemetry.Histogram
	}
}

// New creates an arbiter over the given policy, I/O-node addresses, and
// mapping bus.
func New(pol policy.Policy, ionAddrs []string, bus *mapping.Bus) (*Arbiter, error) {
	if pol == nil {
		return nil, errors.New("arbiter: policy is required")
	}
	if bus == nil {
		return nil, errors.New("arbiter: mapping bus is required")
	}
	uniq := map[string]bool{}
	for _, a := range ionAddrs {
		if uniq[a] {
			return nil, fmt.Errorf("arbiter: duplicate I/O node %s", a)
		}
		uniq[a] = true
	}
	return &Arbiter{
		pol:        pol,
		bus:        bus,
		pool:       append([]string(nil), ionAddrs...),
		down:       map[string]bool{},
		overloaded: map[string]bool{},
		draining:   map[string]bool{},
		degraded:   map[string]bool{},
		quarFloor:  1,
		running:    map[string]policy.Application{},
		assign:     map[string][]string{},
	}, nil
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
	a.tel.marksDown = reg.Counter("arbiter_marked_down_total")
	a.tel.marksUp = reg.Counter("arbiter_marked_up_total")
	a.tel.marksOverloaded = reg.Counter("arbiter_marked_overloaded_total")
	a.tel.marksRecovered = reg.Counter("arbiter_overload_recovered_total")
	a.tel.drains = reg.Counter("arbiter_drains_started_total")
	a.tel.drainsAborted = reg.Counter("arbiter_drains_aborted_total")
	a.tel.ionsAdded = reg.Counter("arbiter_ions_added_total")
	a.tel.ionsRemoved = reg.Counter("arbiter_ions_removed_total")
	a.tel.jobsRunning = reg.Gauge("arbiter_jobs_running")
	a.tel.ionsDown = reg.Gauge("arbiter_ions_down")
	a.tel.ionsLive = reg.Gauge("arbiter_ions_live")
	a.tel.ionsOverload = reg.Gauge("arbiter_ions_overloaded")
	a.tel.ionsDraining = reg.Gauge("arbiter_ions_draining")
	a.tel.ionsLive.Set(int64(len(a.pool)))
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
// quarantine: MarkDegraded excludes a node from new allocations only
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
	a.tel.quarMarks = reg.Counter("arbiter_quarantine_marked_total")
	a.tel.quarRestores = reg.Counter("arbiter_quarantine_restored_total")
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
	if _, dup := a.running[app.ID]; dup {
		return nil, fmt.Errorf("arbiter: job %s already running", app.ID)
	}
	if len(a.availablePool()) == 0 {
		return nil, fmt.Errorf("%w: cannot start %s (pool %d, down %d, draining %d)",
			ErrNoLiveIONs, app.ID, len(a.pool), len(a.down), len(a.draining))
	}
	a.running[app.ID] = app
	// Intent first: if the crash lands between this append and the solve,
	// recovery sees the job and solves for it; if the solve below fails,
	// the compensating record undoes the intent.
	a.record(journal.Record{Kind: journal.KindJobStarted, App: appRecord(app)})
	if err := a.rearbitrate(); err != nil {
		delete(a.running, app.ID)
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
	if _, ok := a.running[id]; !ok {
		return fmt.Errorf("%w: %s is not running", ErrUnknownJob, id)
	}
	delete(a.running, id)
	delete(a.assign, id)
	a.record(journal.Record{Kind: journal.KindJobFinished, Job: id})
	a.tel.jobsRunning.Set(int64(len(a.running)))
	if len(a.running) == 0 {
		a.assign = map[string][]string{}
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

// availablePool returns the pool minus down, draining, and quarantined
// nodes — the addresses arbitration may hand out — in stable pool
// order. Caller holds the lock.
func (a *Arbiter) availablePool() []string {
	quar := a.quarantinedLocked()
	avail := make([]string, 0, len(a.pool))
	for _, addr := range a.pool {
		if !a.down[addr] && !a.draining[addr] && !quar[addr] {
			avail = append(avail, addr)
		}
	}
	return avail
}

// quarantinedLocked computes the effective quarantine set: degraded
// nodes, taken in stable pool order, excluded from allocation only
// while the remaining allocatable capacity stays at or above the
// floor. Degraded nodes past the floor stay allocatable — rearbitrate
// deprioritizes them like overloaded ones instead. Down and draining
// nodes are never in the set: stronger states already exclude them,
// and counting them would double-charge the floor. Caller holds the
// lock.
func (a *Arbiter) quarantinedLocked() map[string]bool {
	if len(a.degraded) == 0 {
		return nil
	}
	live := 0
	for _, addr := range a.pool {
		if !a.down[addr] && !a.draining[addr] {
			live++
		}
	}
	quar := make(map[string]bool, len(a.degraded))
	for _, addr := range a.pool {
		if !a.degraded[addr] || a.down[addr] || a.draining[addr] {
			continue
		}
		if live-len(quar)-1 < a.quarFloor {
			break // floor reached: the rest stay allocatable, deprioritized
		}
		quar[addr] = true
	}
	return quar
}

func (a *Arbiter) inPool(addr string) bool {
	for _, p := range a.pool {
		if p == addr {
			return true
		}
	}
	return false
}

// Down returns the addresses currently marked down.
func (a *Arbiter) Down() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.down))
	for _, addr := range a.pool {
		if a.down[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// Overloaded returns the addresses currently marked overloaded, in stable
// pool order.
func (a *Arbiter) Overloaded() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.overloaded))
	for _, addr := range a.pool {
		if a.overloaded[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// updatePoolGauges refreshes the live/down/overloaded/draining gauges.
// Caller holds the lock.
func (a *Arbiter) updatePoolGauges() {
	a.tel.ionsDown.Set(int64(len(a.down)))
	a.tel.ionsLive.Set(int64(len(a.pool) - len(a.down)))
	a.tel.ionsOverload.Set(int64(len(a.overloaded)))
	a.tel.ionsDraining.Set(int64(len(a.draining)))
	if a.tel.ionsQuarantined != nil {
		quar := a.quarantinedLocked()
		a.tel.ionsQuarantined.Set(int64(len(quar)))
		held := 0
		for addr := range a.degraded {
			if !quar[addr] && !a.down[addr] && !a.draining[addr] {
				held++
			}
		}
		a.tel.quarFloorHeld.Set(int64(held))
	}
}

// without returns addrs with every occurrence of addr removed (the slice
// is only copied when something is actually removed).
func without(addrs []string, addr string) []string {
	hit := false
	for _, x := range addrs {
		if x == addr {
			hit = true
			break
		}
	}
	if !hit {
		return addrs
	}
	out := make([]string, 0, len(addrs)-1)
	for _, x := range addrs {
		if x != addr {
			out = append(out, x)
		}
	}
	return out
}

// MarkDown removes addr from the live pool (a health prober observed it
// unreachable) and re-arbitrates the surviving jobs. The allocation
// invariant — no job is ever mapped to a down I/O node — holds on every
// published mapping even when the policy solve fails: the down node is
// stripped from the previous assignment first, and that degraded (but
// safe) mapping is what gets published on the failure path. Marking an
// already-down node is a no-op.
func (a *Arbiter) MarkDown(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if a.down[addr] {
		return nil
	}
	if a.draining[addr] {
		// The node died mid-drain: the graceful exit aborts into the hard
		// one. Whoever was waiting for quiescence observes the node down
		// and gives up; re-arbitration below routes around it either way.
		delete(a.draining, addr)
		a.tel.drainsAborted.Inc()
	}
	a.down[addr] = true
	a.record(journal.Record{Kind: journal.KindMarkDown, Addr: addr})
	a.tel.marksDown.Inc()
	a.updatePoolGauges()

	// Invariant first, policy second: strip the dead node from the
	// current assignment before any solve runs.
	touched := false
	for app, addrs := range a.assign {
		filtered := without(addrs, addr)
		if len(filtered) != len(addrs) {
			a.assign[app] = filtered
			touched = true
		}
	}
	if len(a.running) == 0 {
		if touched {
			a.publish()
		}
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		// The pruned previous assignment is still safe (nothing routes to
		// the dead node); publish it so clients stop using the node now.
		a.tel.keptMappings.Inc()
		a.publish()
		return fmt.Errorf("arbiter: %s marked down, degraded mapping kept: %w", addr, err)
	}
	return nil
}

// MarkUp returns addr to the live pool and re-arbitrates so jobs can grow
// back onto it. Marking a node that is not down is a no-op. If the solve
// fails the previous mapping stays (it is still valid — the recovered
// node simply idles until the next successful solve).
func (a *Arbiter) MarkUp(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if !a.down[addr] {
		return nil
	}
	delete(a.down, addr)
	a.record(journal.Record{Kind: journal.KindMarkUp, Addr: addr})
	a.tel.marksUp.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s marked up, previous mapping kept: %w", addr, err)
	}
	return nil
}

// MarkOverloaded records that addr is shedding load (a health prober saw
// sustained queue depth or busy responses) and re-arbitrates so jobs drift
// off it. Overload is softer than down: the node stays in the live pool —
// the arbitration invariant "no job maps to a down node" does NOT extend
// to overloaded ones, because a saturated node still completes work and
// removing its capacity under peak load would make the overload worse.
// The solver merely prefers every other live node first, so an overloaded
// node keeps serving only when the pool is too small to avoid it. Marking
// an already-overloaded node is a no-op; marks on down nodes are recorded
// (they take effect when the node comes back up).
func (a *Arbiter) MarkOverloaded(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if a.overloaded[addr] {
		return nil
	}
	if a.draining[addr] {
		// Drain wins: the node is already excluded from every allocation,
		// which is a strictly stronger steer than the overload preference,
		// and it is about to leave the pool anyway.
		return nil
	}
	a.overloaded[addr] = true
	a.record(journal.Record{Kind: journal.KindMarkOverloaded, Addr: addr})
	a.tel.marksOverloaded.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		// The previous mapping is still valid — overloaded nodes are
		// degraded, not gone — so keep it rather than publish nothing.
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s marked overloaded, previous mapping kept: %w", addr, err)
	}
	return nil
}

// MarkRecovered clears addr's overload mark and re-arbitrates so jobs can
// spread back onto it. Marking a node that is not overloaded is a no-op.
func (a *Arbiter) MarkRecovered(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if !a.overloaded[addr] {
		return nil
	}
	delete(a.overloaded, addr)
	a.record(journal.Record{Kind: journal.KindMarkRecovered, Addr: addr})
	a.tel.marksRecovered.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s recovered from overload, previous mapping kept: %w", addr, err)
	}
	return nil
}

// MarkDegraded quarantines addr as fail-slow (the health scorer saw its
// latency sustained far above its peers'): like a drain, the node keeps
// serving whatever already routes to it but re-arbitration stops
// handing it out, so traffic migrates off under the no-shrink invariant
// — and unlike a drain it is bounded by the quarantine floor (see
// WithQuarantine): when excluding the node would leave fewer than
// floor allocatable nodes, it stays allocatable and is merely
// deprioritized like an overloaded one, so correlated slowness cannot
// empty the pool. Marking an already-degraded node is a no-op; marks
// on down nodes are recorded (they take effect when the node rises);
// marks on draining nodes are dropped — the drain is a strictly
// stronger exclusion and the node is leaving anyway.
func (a *Arbiter) MarkDegraded(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if a.degraded[addr] {
		return nil
	}
	if a.draining[addr] {
		return nil // drain wins, as with MarkOverloaded
	}
	a.degraded[addr] = true
	a.record(journal.Record{Kind: journal.KindMarkDegraded, Addr: addr})
	a.tel.quarMarks.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		// The previous mapping is still valid — a slow node is slow, not
		// gone — so keep it rather than publish nothing.
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s quarantined, previous mapping kept: %w", addr, err)
	}
	return nil
}

// MarkRestored clears addr's fail-slow mark and re-arbitrates so jobs
// can spread back onto it. Marking a node that is not degraded is a
// no-op.
func (a *Arbiter) MarkRestored(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if !a.degraded[addr] {
		return nil
	}
	delete(a.degraded, addr)
	a.record(journal.Record{Kind: journal.KindMarkRestored, Addr: addr})
	a.tel.quarRestores.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s restored from quarantine, previous mapping kept: %w", addr, err)
	}
	return nil
}

// Degraded returns the addresses currently marked fail-slow, in stable
// pool order — the marks, not the effective quarantine (a mark held
// back by the capacity floor is still listed; see Quarantined).
func (a *Arbiter) Degraded() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.degraded))
	for _, addr := range a.pool {
		if a.degraded[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// IsDegraded reports whether addr carries a fail-slow mark.
func (a *Arbiter) IsDegraded(addr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded[addr]
}

// Quarantined returns the addresses currently excluded from allocation
// by the gray-failure plane, in stable pool order: the degraded marks
// minus whatever the capacity floor held back.
func (a *Arbiter) Quarantined() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	quar := a.quarantinedLocked()
	out := make([]string, 0, len(quar))
	for _, addr := range a.pool {
		if quar[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// Drain marks addr as leaving the pool gracefully: it stays alive and
// keeps serving whatever is already in flight, but re-arbitration stops
// handing it out, so traffic migrates off under the no-shrink invariant
// (every job keeps its allocated count — on other nodes). Distinct from
// down (the node is healthy) and from overloaded (the node is never
// preferred, not merely deprioritized). Draining an already-draining node
// is a no-op; draining a down node is refused with ErrIONDown. If moving
// the assignments off addr is infeasible (the solve fails or the rest of
// the pool cannot absorb them), the drain is rolled back and refused —
// the caller must not decommission.
func (a *Arbiter) Drain(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if a.draining[addr] {
		return nil
	}
	if a.down[addr] {
		return fmt.Errorf("%w: cannot drain %s", ErrIONDown, addr)
	}
	a.draining[addr] = true
	// Intent first, like JobStarted: a crash mid-migration must leave a
	// DrainStart in the journal so recovery knows to abort it.
	a.record(journal.Record{Kind: journal.KindDrainStart, Addr: addr})
	if len(a.running) > 0 {
		if err := a.rearbitrate(); err != nil {
			delete(a.draining, addr)
			a.record(journal.Record{Kind: journal.KindDrainAbort, Addr: addr})
			a.updatePoolGauges()
			return fmt.Errorf("arbiter: drain of %s refused, mapping unchanged: %w", addr, err)
		}
	}
	a.tel.drains.Inc()
	a.updatePoolGauges()
	return nil
}

// AbortDrain cancels a drain in progress and returns addr to the
// allocatable pool. Aborting a node that is not draining is a no-op (the
// drain may already have aborted into MarkDown). If the follow-up solve
// fails the previous mapping stays — it is still valid, the node simply
// idles until the next successful solve.
func (a *Arbiter) AbortDrain(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	if !a.draining[addr] {
		return nil
	}
	delete(a.draining, addr)
	a.record(journal.Record{Kind: journal.KindDrainAbort, Addr: addr})
	a.tel.drainsAborted.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: drain of %s aborted, previous mapping kept: %w", addr, err)
	}
	return nil
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
	if a.inPool(addr) {
		return fmt.Errorf("arbiter: duplicate I/O node %s", addr)
	}
	a.pool = append(a.pool, addr)
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

// RemoveION forgets addr entirely — pool membership, down/overloaded/
// draining marks, everything. It is the terminal step of a drain (or the
// disposal of a node that never rose) and is refused with ErrIONAssigned
// while any job still routes to addr: remove only what arbitration can no
// longer hand out. No re-arbitration runs — by construction nothing was
// assigned to the node.
func (a *Arbiter) RemoveION(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	for app, addrs := range a.assign {
		for _, x := range addrs {
			if x == addr {
				return fmt.Errorf("%w: %s still routes %s", ErrIONAssigned, addr, app)
			}
		}
	}
	a.pool = without(a.pool, addr)
	delete(a.down, addr)
	delete(a.overloaded, addr)
	delete(a.draining, addr)
	delete(a.degraded, addr)
	a.record(journal.Record{Kind: journal.KindRemoveION, Addr: addr})
	a.tel.ionsRemoved.Inc()
	a.updatePoolGauges()
	return nil
}

// Draining returns the addresses currently draining, in stable pool order.
func (a *Arbiter) Draining() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.draining))
	for _, addr := range a.pool {
		if a.draining[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// IsDraining reports whether addr is draining.
func (a *Arbiter) IsDraining(addr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining[addr]
}

// Pool returns the current pool addresses (including down and draining
// members), in stable order.
func (a *Arbiter) Pool() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.pool...)
}

// rearbitrate recomputes counts with the policy and maps them to concrete
// addresses. Caller holds the lock.
func (a *Arbiter) rearbitrate() error {
	apps := make([]policy.Application, 0, len(a.running))
	for _, app := range a.running {
		if a.weightOf != nil && app.Weight == 0 {
			app.Weight = a.weightOf(app.ID)
		}
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })

	quar := a.quarantinedLocked()
	avail := a.availablePool()
	if len(avail) == 0 {
		a.tel.solveErrors.Inc()
		return fmt.Errorf("%w: %d of %d marked down, %d draining",
			ErrNoLiveIONs, len(a.down), len(a.pool), len(a.draining))
	}
	start := time.Now()
	alloc, err := a.pol.Allocate(apps, len(avail))
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
	// hands out healthy capacity first.
	next := make(map[string][]string, len(alloc))
	used := map[string]bool{}
	for _, app := range apps {
		want := alloc[app.ID]
		cur := a.assign[app.ID]
		keep := make([]string, 0, len(cur))
		for _, addr := range cur {
			if len(keep) == want {
				break
			}
			if !a.down[addr] && !a.overloaded[addr] && !a.draining[addr] && !quar[addr] {
				keep = append(keep, addr)
			}
		}
		next[app.ID] = keep
		for _, addr := range keep {
			used[addr] = true
		}
	}
	// Phase 2: grow from the free available pool in stable pool order,
	// healthy nodes first — overloaded ones, and degraded ones the
	// quarantine floor held back, are appended last so they absorb load
	// only when the healthy pool cannot cover the allocation (capacity
	// is deprioritized, never destroyed). Draining and quarantined
	// nodes are not in the available pool at all.
	free := make([]string, 0, len(avail))
	for _, addr := range avail {
		if !used[addr] && !a.overloaded[addr] && !a.degraded[addr] {
			free = append(free, addr)
		}
	}
	for _, addr := range avail {
		if !used[addr] && (a.overloaded[addr] || a.degraded[addr]) {
			free = append(free, addr)
		}
	}
	for _, app := range apps {
		want := alloc[app.ID]
		for len(next[app.ID]) < want {
			if len(free) == 0 {
				return fmt.Errorf("arbiter: pool exhausted assigning %s (policy overcommitted)", app.ID)
			}
			next[app.ID] = append(next[app.ID], free[0])
			free = free[1:]
		}
	}
	a.assign = next
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
