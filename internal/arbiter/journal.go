package arbiter

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// WithJournal attaches a write-ahead journal: every control-plane
// transition is appended (and fsynced) before it becomes visible on the
// bus, and a compacting snapshot is written whenever enough records
// accumulate. A baseline snapshot of the current state is taken
// immediately, so even a journal that never sees another append can
// reconstruct pool membership. Call before the arbiter is shared.
//
// Journal I/O failures are advisory: the arbiter keeps serving
// (availability over durability for a single-node control plane) and the
// journal's own journal_append_errors_total counter records the gap.
func (a *Arbiter) WithJournal(j *journal.Journal) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jn = j
	if j != nil {
		a.epoch = a.bus.Version()
		j.Snapshot(a.stateLocked())
	}
	return a
}

// record appends one event and hands the journal a compaction snapshot
// when one is due. No-op without a journal. Caller holds a.mu.
func (a *Arbiter) record(r journal.Record) {
	if a.jn == nil {
		return
	}
	a.jn.Append(r)
	if a.jn.SnapshotDue() {
		a.jn.Snapshot(a.stateLocked())
	}
}

// stateLocked captures the arbiter's full control-plane state as a
// journal snapshot — what restore loads back. The pool is sorted
// (journal.State's convention; restore sorts the pool it rebuilds, so
// the order survives round trips) and healthy nodes are left out of
// Nodes. Caller holds a.mu.
func (a *Arbiter) stateLocked() journal.State {
	st := journal.State{Epoch: a.epoch, Pool: make([]string, 0, len(a.nodes)), Nodes: map[string]nodestate.State{}}
	for _, m := range a.nodes {
		st.Pool = append(st.Pool, m.addr)
		if m.st != 0 {
			st.Nodes[m.addr] = m.st
		}
	}
	sort.Strings(st.Pool)
	for _, app := range a.running {
		st.Running = append(st.Running, *appRecord(app))
	}
	if len(a.assign) > 0 {
		st.Assign = make(map[string][]string, len(a.assign))
		for job, addrs := range a.assign {
			if _, ok := a.job(job); ok { // not a job dropped by a decision still unpublished
				st.Assign[job] = append([]string(nil), addrs...)
			}
		}
	}
	return st
}

// appRecord converts a policy application into its journal form,
// flattening the bandwidth curve so the history-informed inputs survive a
// crash (see WithHistory: the curve is completed before JobStarted runs,
// so what lands here is what the solver actually saw).
func appRecord(app policy.Application) *journal.App {
	ja := &journal.App{
		ID: app.ID, Nodes: app.Nodes, Processes: app.Processes,
		WriteBytes: app.WriteBytes, ReadBytes: app.ReadBytes, Weight: app.Weight,
	}
	for _, pt := range app.Curve.Points() {
		ja.Curve = append(ja.Curve, journal.CurvePoint{IONs: pt.IONs, MBps: pt.Bandwidth.MBps()})
	}
	return ja
}

// appFromRecord is the inverse of appRecord.
func appFromRecord(ja journal.App) policy.Application {
	pts := make([]perfmodel.Point, 0, len(ja.Curve))
	for _, p := range ja.Curve {
		pts = append(pts, perfmodel.Point{IONs: p.IONs, Bandwidth: units.BandwidthFromMBps(p.MBps)})
	}
	return policy.Application{
		ID: ja.ID, Nodes: ja.Nodes, Processes: ja.Processes,
		WriteBytes: ja.WriteBytes, ReadBytes: ja.ReadBytes, Weight: ja.Weight,
		Curve: perfmodel.NewCurve(pts...),
	}
}

// Running returns the registered applications, sorted by ID — including
// the characterization curve each one carried into the last solve. Used
// by recovery tests to pin that solve inputs survive a crash.
func (a *Arbiter) Running() []policy.Application {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(make([]policy.Application, 0, len(a.running)), a.running...)
}

// RecoverConfig parameterizes a warm restart from a journal.
type RecoverConfig struct {
	// Journal is the replayed journal the new arbiter continues into.
	// Required; open it first so its recovered state is available.
	Journal *journal.Journal
	// Policy and Bus are the solver and mapping bus of the new process,
	// exactly as New takes them. Required.
	Policy policy.Policy
	Bus    *mapping.Bus
	// Probe, when set, is asked once per journaled pool member that the
	// journal believes alive; returning false marks the node down before
	// the first solve (it died during the blackout). Nil trusts the
	// journal (reconciliation happens later through the health prober).
	Probe func(addr string) bool
	// Weights is the optional QoS weight source (see WithWeights).
	Weights func(id string) float64
	// QuarantineFloor, when > 0, re-arms the gray-failure quarantine on
	// the recovered arbiter (see WithQuarantine); journaled degraded
	// marks are restored either way — a slow node is still slow after a
	// control-plane restart.
	QuarantineFloor int
	// Telemetry, when set, instruments the recovered arbiter.
	Telemetry *telemetry.Registry
}

// Recover rebuilds an arbiter from a replayed journal and reconciles it
// against reality: journaled pool members that no longer answer probes
// take a Fail (their allocations pruned), half-finished drains are
// aborted (the scaler re-decides with live information), and the
// surviving assignment is republished under the no-shrink invariant —
// every recovered job keeps its allocated node count, preferentially on
// the exact nodes it held before the crash. Every epoch the pre-crash
// arbiter could have published is revoked: the recovery map carries the
// new fence, and a bus follower that raises every daemon's floor before
// any client applies the map (livestack's) guarantees that a client still
// routing on a pre-crash mapping can never land a write on a reassigned
// I/O node.
//
// A solve failure during the republish is advisory, exactly as for a live
// Fail: the pruned pre-crash mapping is published (it is safe —
// nothing routes to a dead node) and the error reports the degradation.
func Recover(cfg RecoverConfig) (*Arbiter, error) {
	if cfg.Journal == nil {
		return nil, errors.New("arbiter: recovery requires a journal")
	}
	snap, tail := cfg.Journal.Replayed()
	a, err := restore(cfg.Policy, cfg.Bus, snap, tail)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		a.Instrument(cfg.Telemetry)
	}
	a.WithWeights(cfg.Weights)
	if cfg.QuarantineFloor > 0 {
		a.WithQuarantine(cfg.QuarantineFloor)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.jn = cfg.Journal

	// Reconcile membership against reality with the transitions a live
	// arbiter would run — apply is Transition without the solve, which
	// happens once, below (and cannot fail here: the addresses are pool
	// members and neither event is ever refused). Nodes that died during
	// the blackout take a Fail, which prunes them from every allocation,
	// so "no job maps to a dead node" holds on the first recovery publish.
	if cfg.Probe != nil {
		for _, m := range a.nodes {
			if !m.st.Has(nodestate.Down) && !cfg.Probe(m.addr) {
				a.apply(m.addr, nodestate.Fail)
			}
		}
	}
	// Abort half-finished drains: the pre-crash arbiter was migrating
	// traffic off these nodes, but whoever was waiting for quiescence is
	// gone. Returning them to the allocatable pool is always safe; the
	// scaler re-decides with live information. (A no-op, as ever, on a
	// node that is not draining.)
	for _, m := range a.nodes {
		a.apply(m.addr, nodestate.DrainAbort)
	}
	a.updatePoolGauges()
	a.tel.jobsRunning.Set(int64(len(a.running)))

	// Epoch handoff. The journal's epoch is ≥ every version a client saw
	// (publishes are journaled write-ahead), so resuming the bus there
	// and fencing one above revokes every pre-crash mapping. The recovery
	// publish below carries the fence to the bus's followers, in order:
	// the daemons' floor is raised before any client routes on the map.
	cfg.Bus.Resume(a.epoch)
	cfg.Bus.Revoke(cfg.Bus.Version() + 1)

	var advisory error
	if len(a.running) > 0 {
		if err := a.rearbitrate(); err != nil {
			a.tel.keptMappings.Inc()
			a.publish()
			advisory = fmt.Errorf("arbiter: recovered with pruned pre-crash mapping kept: %w", err)
		}
	} else {
		a.publish()
	}
	return a, advisory
}

// restore rebuilds the arbiter a journal describes: the snapshot's
// state, then one replay of every record after it. No journal or
// telemetry is attached yet, so the replay journals and counts nothing;
// what it leaves is the pre-crash arbiter, pool sorted, before any
// reconciliation.
func restore(pol policy.Policy, bus *mapping.Bus, snap *journal.State, tail []journal.Record) (*Arbiter, error) {
	a, err := New(pol, snap.Pool, bus)
	if err != nil {
		return nil, err
	}
	for addr, st := range snap.Nodes {
		if i := a.find(addr); i >= 0 {
			a.nodes[i].st = st
		}
	}
	for _, ja := range snap.Running {
		a.addJob(appFromRecord(ja))
	}
	// The snapshot's assignment and epoch are what its last publish set.
	a.replay(journal.Record{Kind: journal.KindPublish, Epoch: snap.Epoch, Assign: snap.Assign})
	for _, r := range tail {
		a.replay(r)
	}
	slices.SortFunc(a.nodes, func(x, y member) int { return strings.Compare(x.addr, y.addr) })
	return a, nil
}

// replay folds one journal record into the arbiter through the mutators
// the live entry points use. Records that do not apply — an event on a
// node outside the pool, a duplicate AddION, a kind this version does not
// know — change nothing. Caller holds the lock, or owns a.
func (a *Arbiter) replay(r journal.Record) {
	switch r.Kind {
	case journal.KindJobStarted:
		if r.App != nil {
			a.addJob(appFromRecord(*r.App))
		}
	case journal.KindJobFinished:
		a.dropJob(r.Job)
		a.unassign(r.Job)
	case journal.KindPublish:
		a.epoch = r.Epoch
		a.assign = make(map[string][]string, len(r.Assign))
		for job, addrs := range r.Assign {
			a.assign[job] = append([]string(nil), addrs...)
		}
	case journal.KindAddION:
		a.addMember(r.Addr, nodestate.Down)
	case journal.KindRemoveION:
		if i := a.find(r.Addr); i >= 0 {
			a.nodes = slices.Delete(a.nodes, i, i+1)
		}
	default:
		if ev, ok := r.Kind.Event(); ok {
			a.apply(r.Addr, ev)
		}
	}
}
