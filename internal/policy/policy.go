// Package policy implements the I/O-node arbitration policies compared in
// the paper (§3.2): ZERO, ONE, STATIC, SIZE, PROCESS, ORACLE, and the
// MCKP-based policy that is the paper's contribution. All policies share
// one interface so the experiment harness and the arbiter service can swap
// them freely.
//
// An application's candidate allocations are the points of its bandwidth
// curve (weight = I/O nodes, value = bandwidth), which already encode the
// divisibility constraint of §3.1 — the curve only has points at counts
// that divide the application's compute nodes.
package policy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/mckp"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Application is one ready-to-run (or running) job as the arbiter sees it.
type Application struct {
	// ID uniquely identifies the job.
	ID string
	// Nodes is the number of compute nodes the job occupies.
	Nodes int
	// Processes is the job's client-process count.
	Processes int
	// Curve is the job's bandwidth-vs-I/O-node curve. An empty curve
	// means no characterization data exists yet (first execution); the
	// MCKP policy then falls back to the STATIC default for that job
	// (paper §3.1).
	Curve perfmodel.Curve
	// WriteBytes and ReadBytes are the job's transfer volumes, used by
	// the dynamic-queue simulation.
	WriteBytes int64
	ReadBytes  int64
	// Weight scales the job's utility in the MCKP objective (internal/qos
	// class weight): a guaranteed tenant with weight w counts each MB/s of
	// its curve w times, so it wins contended I/O-node allocations. ≤0
	// means 1 — the unweighted pre-QoS objective. Only the MCKP policy
	// consults it; the bandwidth aggregate (SumBandwidth) always uses real
	// bandwidth, never utility.
	Weight float64
}

// utilityWeight returns the MCKP utility multiplier (1 when unset).
func (a Application) utilityWeight() float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// FromAppSpec converts a perfmodel application spec into an arbitration
// Application, using the given ID (several jobs may run the same kernel).
func FromAppSpec(id string, spec perfmodel.AppSpec) Application {
	return Application{
		ID:         id,
		Nodes:      spec.Nodes,
		Processes:  spec.Processes,
		Curve:      spec.Curve,
		WriteBytes: spec.WriteBytes,
		ReadBytes:  spec.ReadBytes,
	}
}

// Allocation maps application IDs to their assigned I/O-node counts.
type Allocation map[string]int

// Total returns the number of I/O nodes the allocation consumes.
func (a Allocation) Total() int {
	t := 0
	for _, n := range a {
		t += n
	}
	return t
}

// Policy arbitrates a fixed pool of I/O nodes among applications.
type Policy interface {
	// Name returns the policy's paper name (e.g. "MCKP", "STATIC").
	Name() string
	// Allocate decides how many I/O nodes each application receives.
	// available is the size of the forwarding pool. Implementations must
	// be deterministic.
	Allocate(apps []Application, available int) (Allocation, error)
}

// Errors shared by the policies.
var (
	ErrNoApplications = errors.New("policy: no applications to arbitrate")
	ErrNoZeroOption   = errors.New("policy: application cannot run without forwarding")
	ErrNoCurve        = errors.New("policy: application has no bandwidth curve")
)

// options returns the app's candidate ION counts in ascending order.
func options(app Application) []int {
	pts := app.Curve.Points()
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.IONs
	}
	return out
}

// positiveOptions returns the candidate counts that use forwarding.
func positiveOptions(app Application) []int {
	var out []int
	for _, o := range options(app) {
		if o > 0 {
			out = append(out, o)
		}
	}
	return out
}

// clampDown returns the largest option ≤ want from opts (ascending); if
// every option exceeds want it returns the smallest one, so the result is
// always a valid choice.
func clampDown(opts []int, want int) (int, error) {
	if len(opts) == 0 {
		return 0, ErrNoCurve
	}
	best := opts[0]
	for _, o := range opts {
		if o <= want {
			best = o
		}
	}
	return best, nil
}

// trimToFit downgrades allocations until the pool size is respected:
// repeatedly the application with the largest allocation (ties broken by
// ID) steps down to its next lower option. Applications already at their
// lowest option cannot shrink further; if nothing can shrink, an error is
// returned.
func trimToFit(apps []Application, alloc Allocation, available int) error {
	byID := make(map[string]Application, len(apps))
	for _, a := range apps {
		byID[a.ID] = a
	}
	for alloc.Total() > available {
		bestID := ""
		for id, n := range alloc {
			if bestID == "" || n > alloc[bestID] || (n == alloc[bestID] && id < bestID) {
				if lowerOption(byID[id], n) >= 0 {
					bestID = id
				}
			}
		}
		if bestID == "" {
			return fmt.Errorf("policy: cannot trim allocation into %d I/O nodes", available)
		}
		alloc[bestID] = lowerOption(byID[bestID], alloc[bestID])
	}
	return nil
}

// lowerOption returns the app's next option below cur, or -1 if none.
func lowerOption(app Application, cur int) int {
	lower := -1
	for _, o := range options(app) {
		if o < cur && o > lower {
			lower = o
		}
	}
	return lower
}

// --- ZERO ---------------------------------------------------------------

// Zero assigns no forwarding nodes to anyone: every application accesses
// the PFS directly. It fails if some application cannot run unforwarded.
type Zero struct{}

// Name implements Policy.
func (Zero) Name() string { return "ZERO" }

// Allocate implements Policy.
func (Zero) Allocate(apps []Application, _ int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}
	alloc := make(Allocation, len(apps))
	for _, a := range apps {
		if _, ok := a.Curve.At(0); !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoZeroOption, a.ID)
		}
		alloc[a.ID] = 0
	}
	return alloc, nil
}

// --- ONE ----------------------------------------------------------------

// One assigns exactly one dedicated I/O node to every application. Like
// the paper's diagnostic use of it, the pool size is not enforced: the
// policy exists to expose the cost of naive forwarding.
type One struct{}

// Name implements Policy.
func (One) Name() string { return "ONE" }

// Allocate implements Policy.
func (One) Allocate(apps []Application, _ int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}
	alloc := make(Allocation, len(apps))
	for _, a := range apps {
		if _, ok := a.Curve.At(1); !ok {
			return nil, fmt.Errorf("policy: %s has no 1-I/O-node point", a.ID)
		}
		alloc[a.ID] = 1
	}
	return alloc, nil
}

// --- STATIC -------------------------------------------------------------

// Static reproduces the deployment policy of production machines: each
// application receives I/O nodes in proportion to its compute-node count
// at the machine's fixed compute-to-I/O-node ratio R = C/F, with a minimum
// of one (forwarding is mandatory under STATIC). The tentative share
// floor(Nodes/R) is clamped down to the application's nearest candidate
// count, and the result is trimmed to the pool if needed.
//
// SystemCompute and SystemIONs define the machine ratio. If SystemCompute
// is zero, the ratio is derived from the applications being arbitrated and
// the available pool (the §5.2 standalone setting).
type Static struct {
	SystemCompute int
	SystemIONs    int
}

// Name implements Policy.
func (Static) Name() string { return "STATIC" }

// Allocate implements Policy.
func (p Static) Allocate(apps []Application, available int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}
	c, f := p.SystemCompute, p.SystemIONs
	if c <= 0 || f <= 0 {
		c, f = 0, available
		for _, a := range apps {
			c += a.Nodes
		}
	}
	if f <= 0 {
		return nil, fmt.Errorf("policy: STATIC needs a positive I/O-node pool")
	}
	ratio := float64(c) / float64(f)
	alloc := make(Allocation, len(apps))
	for _, a := range apps {
		opts := positiveOptions(a)
		if len(opts) == 0 {
			return nil, fmt.Errorf("%w: %s has no forwarding option", ErrNoCurve, a.ID)
		}
		want := int(math.Floor(float64(a.Nodes) / ratio))
		if want < 1 {
			want = 1
		}
		n, err := clampDown(opts, want)
		if err != nil {
			return nil, fmt.Errorf("policy: %s: %w", a.ID, err)
		}
		alloc[a.ID] = n
	}
	if err := trimToFit(apps, alloc, available); err != nil {
		return nil, err
	}
	return alloc, nil
}

// --- SIZE and PROCESS ---------------------------------------------------

// Proportional implements the paper's SIZE and PROCESS policies: the pool
// is divided among the running applications in proportion to their size
// (compute nodes for SIZE, client processes for PROCESS):
// round(F·sa/Σs), clamped to the application's candidate counts. Unlike
// STATIC, a small enough share rounds to zero, and the whole pool is
// distributed even when few compute nodes are in use.
type Proportional struct {
	// ByProcesses selects the PROCESS variant; otherwise SIZE.
	ByProcesses bool
}

// Name implements Policy.
func (p Proportional) Name() string {
	if p.ByProcesses {
		return "PROCESS"
	}
	return "SIZE"
}

func (p Proportional) size(a Application) float64 {
	if p.ByProcesses {
		return float64(a.Processes)
	}
	return float64(a.Nodes)
}

// Allocate implements Policy.
func (p Proportional) Allocate(apps []Application, available int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}
	var total float64
	for _, a := range apps {
		total += p.size(a)
	}
	if total == 0 {
		return nil, fmt.Errorf("policy: %s: all applications have zero size", p.Name())
	}
	alloc := make(Allocation, len(apps))
	for _, a := range apps {
		share := float64(available) * p.size(a) / total
		want := int(math.Round(share))
		if want == 0 {
			// The application is too small for a dedicated forwarder.
			if _, ok := a.Curve.At(0); ok {
				alloc[a.ID] = 0
				continue
			}
			want = 1 // direct access not permitted: smallest option
		}
		n, err := clampDown(positiveOptions(a), want)
		if err != nil {
			return nil, fmt.Errorf("policy: %s: %s: %w", p.Name(), a.ID, err)
		}
		alloc[a.ID] = n
	}
	if err := trimToFit(apps, alloc, available); err != nil {
		return nil, err
	}
	return alloc, nil
}

// --- ORACLE -------------------------------------------------------------

// Oracle assigns every application the I/O-node count at which its curve
// peaks, disregarding the pool size entirely. It is the paper's fictitious
// upper bound for the achievable aggregate bandwidth.
type Oracle struct{}

// Name implements Policy.
func (Oracle) Name() string { return "ORACLE" }

// Allocate implements Policy.
func (Oracle) Allocate(apps []Application, _ int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}
	alloc := make(Allocation, len(apps))
	for _, a := range apps {
		if a.Curve.Len() == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoCurve, a.ID)
		}
		alloc[a.ID] = a.Curve.Best().IONs
	}
	return alloc, nil
}

// --- MCKP ---------------------------------------------------------------

// MCKP is the paper's arbitration policy: one knapsack class per
// application, one item per candidate I/O-node count (weight = count,
// value = bandwidth), capacity = available pool. Solving the MCKP with the
// exact DP (the paper's choice) yields the allocation that maximizes the
// aggregate bandwidth. Applications without curve data (first execution)
// get the STATIC default, as in §3.1.
type MCKP struct{}

// Name implements Policy.
func (MCKP) Name() string { return "MCKP" }

// problem is MCKP.Allocate's working memory, pooled across solves and
// the goroutines solving in parallel.
type problem struct {
	known   []Application
	items   []mckp.Item
	classes []mckp.Class
}

var problemPool = sync.Pool{New: func() any { return new(problem) }}

// Allocate implements Policy.
func (MCKP) Allocate(apps []Application, available int) (Allocation, error) {
	if len(apps) == 0 {
		return nil, ErrNoApplications
	}

	// Split off uncharacterized applications: they get the machine
	// default so their first run is not penalized (§3.1).
	scratch := problemPool.Get().(*problem)
	defer problemPool.Put(scratch)
	known, unknown := scratch.known[:0], []Application(nil)
	for _, a := range apps {
		if a.Curve.Len() == 0 {
			unknown = append(unknown, a)
		} else {
			known = append(known, a)
		}
	}
	alloc := make(Allocation, len(apps))
	if len(unknown) > 0 {
		// Uncharacterized applications have no curve to read options
		// from; synthesize the standard option set (powers of two
		// dividing the node count) so STATIC can choose.
		withOpts := make([]Application, len(unknown))
		for i, a := range unknown {
			withOpts[i] = a
			withOpts[i].Curve = syntheticOptions(a.Nodes, available)
		}
		fbAlloc, err := Static{}.Allocate(withOpts, available)
		if err != nil {
			return nil, fmt.Errorf("policy: MCKP fallback: %w", err)
		}
		for id, n := range fbAlloc {
			alloc[id] = n
		}
		available -= fbAlloc.Total()
		if available < 0 {
			available = 0
		}
	}
	scratch.known = known
	if len(known) == 0 {
		return alloc, nil
	}

	// One class per application in ID order, every class's items cut from
	// one presized backing slice.
	slices.SortFunc(known, func(x, y Application) int { return strings.Compare(x.ID, y.ID) })
	points := 0
	for _, a := range known {
		points += a.Curve.Len()
	}
	items := slices.Grow(scratch.items[:0], points)
	prob := mckp.Problem{Capacity: available, Classes: slices.Grow(scratch.classes[:0], len(known))}
	scratch.items, scratch.classes = items, prob.Classes
	for _, a := range known {
		start, w := len(items), a.utilityWeight()
		for i := 0; i < a.Curve.Len(); i++ {
			if pt := a.Curve.Point(i); pt.IONs <= available {
				items = append(items, mckp.Item{Weight: pt.IONs, Value: pt.Bandwidth.MBps() * w})
			}
		}
		if len(items) == start {
			return nil, fmt.Errorf("policy: MCKP: %s has no option within %d I/O nodes", a.ID, available)
		}
		prob.Classes = append(prob.Classes, mckp.Class{Label: a.ID, Items: items[start:len(items):len(items)]})
	}
	sol, err := mckp.SolveDP(prob)
	if err != nil {
		return nil, fmt.Errorf("policy: MCKP: %w", err)
	}
	for ci, itemIdx := range sol.Choice {
		alloc[prob.Classes[ci].Label] = prob.Classes[ci].Items[itemIdx].Weight
	}
	return alloc, nil
}

// syntheticOptions builds a zero-valued curve whose points are the
// standard candidate counts for a job of the given size: 0 (direct access)
// and the powers of two dividing the node count, up to max. It exists so
// size-based fallback policies can allocate for applications that have no
// measured curve yet.
func syntheticOptions(nodes, max int) perfmodel.Curve {
	pts := []perfmodel.Point{{IONs: 0}}
	for w := 1; w <= max; w *= 2 {
		if nodes > 0 && nodes%w == 0 {
			pts = append(pts, perfmodel.Point{IONs: w})
		}
	}
	return perfmodel.NewCurve(pts...)
}

// --- Evaluation helpers ---------------------------------------------------

// SumBandwidth is the §5.2 aggregate: the sum of each application's
// bandwidth at its allocated I/O-node count.
func SumBandwidth(apps []Application, alloc Allocation) (units.Bandwidth, error) {
	var total units.Bandwidth
	for _, a := range apps {
		n, ok := alloc[a.ID]
		if !ok {
			return 0, fmt.Errorf("policy: allocation missing application %s", a.ID)
		}
		bw, ok := a.Curve.At(n)
		if !ok {
			return 0, fmt.Errorf("policy: %s has no curve point at %d I/O nodes", a.ID, n)
		}
		total += bw
	}
	return total, nil
}
