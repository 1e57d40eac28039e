// Package jobs models the batch system of the paper's §5.3 dynamic
// experiment: a strict-FIFO queue of jobs over a fixed pool of compute
// nodes, with the I/O-node arbitration policy re-invoked every time the set
// of running jobs changes.
//
// The event-driven simulator advances jobs through their I/O volume at the
// bandwidth their curve reports for the currently allocated number of I/O
// nodes, so a reallocation mid-run changes a job's progress rate exactly as
// GekkoFWD's dynamic remapping does on the testbed. STATIC's production
// semantics — never reallocating a running application — are modeled by the
// Sticky option.
package jobs

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

// QueuedJob is one entry of the FIFO queue.
type QueuedJob struct {
	// ID uniquely identifies the job (several jobs may run the same
	// application kernel).
	ID string
	// Spec is the application: geometry, volumes, bandwidth curve.
	Spec perfmodel.AppSpec
	// Arrival is the submission time in seconds; a job cannot start
	// earlier even if resources are free.
	Arrival float64
}

// SimConfig parameterizes a queue simulation.
type SimConfig struct {
	// Jobs in FIFO order.
	Jobs []QueuedJob
	// ComputeNodes is the size of the compute partition (paper: 96).
	ComputeNodes int
	// IONs is the size of the forwarding pool (paper: 12).
	IONs int
	// Policy arbitrates I/O nodes among running jobs.
	Policy policy.Policy
	// Sticky freezes a job's allocation once it starts (the STATIC and
	// ONE production behaviour); the policy then only decides for newly
	// started jobs within the remaining pool.
	Sticky bool
	// AllowDirect permits zero-I/O-node allocations. The paper's §5.3
	// live experiment disallows direct PFS access to mimic platforms
	// with that restriction.
	AllowDirect bool
	// RecruitIdle enables the paper's future-work extension: when the
	// machine has no (or few) dedicated forwarding nodes, idle compute
	// nodes are recruited as temporary I/O nodes, so each arbitration's
	// pool is IONs plus the free compute nodes.
	RecruitIdle bool
	// RemapDelay is the seconds until a running job observes a changed
	// allocation — GekkoFWD clients poll the mapping every 10 s, so a
	// reallocation takes effect only at the next poll. Zero means
	// instantaneous. A job's first allocation is always immediate (the
	// client reads the mapping before issuing I/O).
	RemapDelay float64
}

// AllocSpan records one stretch of a job's allocation timeline.
type AllocSpan struct {
	Start, End float64 // seconds since simulation start
	IONs       int
}

// JobOutcome summarizes one job's execution.
type JobOutcome struct {
	ID        string
	Label     string
	Start     float64 // seconds
	End       float64 // seconds
	Bytes     int64
	Bandwidth units.Bandwidth // Bytes / (End-Start)
	Timeline  []AllocSpan
}

// SimResult is the outcome of a queue simulation.
type SimResult struct {
	PerJob map[string]*JobOutcome
	// Aggregate is Equation 2 over all jobs: Σ (Wa+Ra)/runtime_a.
	Aggregate units.Bandwidth
	// Makespan is the completion time of the last job (seconds).
	Makespan float64
	// Reallocations counts allocation changes applied to running jobs.
	Reallocations int
	// IONUtilization is the fraction of ION-time actually held by jobs:
	// Σ(alloc·duration) / (IONs·makespan). The paper's first contribution
	// claims dynamic arbitration uses the available I/O nodes
	// efficiently; this metric quantifies it. Zero when IONs == 0.
	IONUtilization float64
}

type runningJob struct {
	job       QueuedJob
	app       policy.Application
	start     float64
	remaining float64 // bytes
	alloc     int
	rate      float64 // bytes/s at current alloc
	timeline  []AllocSpan
	// pendingAlloc/pendingAt model the mapping-poll latency: the new
	// allocation takes effect at pendingAt. pendingAlloc < 0 means no
	// pending change.
	pendingAlloc int
	pendingAt    float64
}

// SimulateQueue runs the event-driven simulation.
func SimulateQueue(cfg SimConfig) (*SimResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("jobs: empty queue")
	}
	if cfg.ComputeNodes <= 0 || cfg.IONs < 0 || cfg.Policy == nil {
		return nil, fmt.Errorf("jobs: invalid config (%d compute nodes, %d IONs, policy %v)",
			cfg.ComputeNodes, cfg.IONs, cfg.Policy)
	}
	seen := map[string]bool{}
	for _, j := range cfg.Jobs {
		if seen[j.ID] {
			return nil, fmt.Errorf("jobs: duplicate job ID %q", j.ID)
		}
		seen[j.ID] = true
		if j.Spec.Nodes > cfg.ComputeNodes {
			return nil, fmt.Errorf("jobs: %s needs %d nodes, cluster has %d", j.ID, j.Spec.Nodes, cfg.ComputeNodes)
		}
	}

	s := &sim{cfg: cfg, result: &SimResult{PerJob: map[string]*JobOutcome{}}}
	return s.run()
}

type sim struct {
	cfg     cfgAlias
	t       float64
	queue   []QueuedJob
	running []*runningJob
	free    int
	result  *SimResult
	// sharedUsers holds the jobs currently parked on the system-wide
	// shared I/O node (policies implementing sharedAllocator, §3.1).
	sharedUsers map[string]bool
}

// sharedAllocator is implemented by policy.WithShared: allocations may park
// some applications on one system-wide shared I/O node.
type sharedAllocator interface {
	AllocateShared(apps []policy.Application, available int) (policy.Allocation, []string, error)
}

type cfgAlias = SimConfig

func (s *sim) run() (*SimResult, error) {
	s.queue = append([]QueuedJob(nil), s.cfg.Jobs...)
	s.free = s.cfg.ComputeNodes

	for len(s.queue) > 0 || len(s.running) > 0 {
		started := s.admit()
		if started {
			if err := s.arbitrate(); err != nil {
				return nil, err
			}
		}
		if len(s.running) == 0 {
			if len(s.queue) > 0 && s.queue[0].Arrival > s.t {
				s.t = s.queue[0].Arrival // idle until the next submission
				continue
			}
			// FIFO head does not fit and nothing is running: the head
			// job is wider than the machine (validated earlier), so
			// this cannot happen; guard anyway.
			return nil, errors.New("jobs: deadlock — queue head cannot start")
		}
		// Advance to the earliest completion, the next submission, or
		// the next pending remap taking effect, whichever comes first.
		dt := math.Inf(1)
		for _, r := range s.running {
			if r.rate <= 0 {
				return nil, fmt.Errorf("jobs: %s has zero bandwidth at %d IONs", r.job.ID, r.alloc)
			}
			if d := r.remaining / r.rate; d < dt {
				dt = d
			}
			if r.pendingAlloc >= 0 {
				if d := r.pendingAt - s.t; d > 0 && d < dt {
					dt = d
				}
			}
		}
		if len(s.queue) > 0 && s.queue[0].Arrival > s.t {
			if d := s.queue[0].Arrival - s.t; d < dt {
				dt = d
			}
		}
		s.t += dt
		var still []*runningJob
		finishedAny := false
		for _, r := range s.running {
			r.remaining -= r.rate * dt
			if r.remaining <= 1e-6*r.rate {
				s.finish(r)
				finishedAny = true
			} else {
				still = append(still, r)
			}
		}
		s.running = still
		// Apply remaps whose poll time has arrived.
		for _, r := range s.running {
			if r.pendingAlloc >= 0 && r.pendingAt <= s.t+1e-9 {
				if err := s.applyAlloc(r, r.pendingAlloc); err != nil {
					return nil, err
				}
				r.pendingAlloc = -1
			}
		}
		if finishedAny && len(s.running) > 0 {
			// The policy is also invoked when jobs finish (paper §5.3),
			// even when no queued job can start yet.
			s.admit()
			if err := s.arbitrate(); err != nil {
				return nil, err
			}
		}
	}

	// Equation 2 aggregate.
	var agg float64
	for _, o := range s.result.PerJob {
		if runtime := o.End - o.Start; runtime > 0 {
			agg += float64(o.Bytes) / runtime
		}
	}
	s.result.Aggregate = units.Bandwidth(agg)
	// ION-time integral over every allocation span.
	if s.cfg.IONs > 0 && s.result.Makespan > 0 {
		var ionSeconds float64
		for _, o := range s.result.PerJob {
			for _, span := range o.Timeline {
				ionSeconds += float64(span.IONs) * (span.End - span.Start)
			}
		}
		s.result.IONUtilization = ionSeconds / (float64(s.cfg.IONs) * s.result.Makespan)
	}
	return s.result, nil
}

// admit starts FIFO-head jobs while compute nodes are available. Strict
// FIFO: a blocked head blocks everyone behind it.
func (s *sim) admit() bool {
	started := false
	for len(s.queue) > 0 && s.queue[0].Arrival <= s.t+1e-9 && s.queue[0].Spec.Nodes <= s.free {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.free -= j.Spec.Nodes
		r := &runningJob{
			job:          j,
			start:        s.t,
			remaining:    float64(j.Spec.TotalBytes()),
			alloc:        -1, // not yet arbitrated
			pendingAlloc: -1,
			app:          policy.FromAppSpec(j.ID, j.Spec),
		}
		if !s.cfg.AllowDirect {
			r.app.Curve = r.app.Curve.Forwarded()
		}
		s.running = append(s.running, r)
		started = true
	}
	return started
}

// arbitrate re-runs the policy over the running jobs and applies the new
// allocation, honoring stickiness.
func (s *sim) arbitrate() error {
	if len(s.running) == 0 {
		return nil
	}
	sort.Slice(s.running, func(i, j int) bool { return s.running[i].start < s.running[j].start })

	var alloc policy.Allocation
	if s.cfg.Sticky {
		// Only decide for jobs that never got an allocation, using the
		// pool left by the frozen ones.
		used := 0
		var fresh []policy.Application
		for _, r := range s.running {
			if r.alloc >= 0 {
				used += r.alloc
			} else {
				fresh = append(fresh, r.app)
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		remaining := s.effectivePool() - used
		if remaining < 0 {
			remaining = 0
		}
		freshAlloc, err := s.cfg.Policy.Allocate(fresh, remaining)
		if err != nil {
			return fmt.Errorf("jobs: policy %s: %w", s.cfg.Policy.Name(), err)
		}
		alloc = policy.Allocation{}
		for _, r := range s.running {
			if r.alloc >= 0 {
				alloc[r.job.ID] = r.alloc
			}
		}
		for id, n := range freshAlloc {
			alloc[id] = n
		}
	} else {
		apps := make([]policy.Application, 0, len(s.running))
		for _, r := range s.running {
			apps = append(apps, r.app)
		}
		var err error
		var sharedUsers []string
		if sp, ok := s.cfg.Policy.(sharedAllocator); ok {
			alloc, sharedUsers, err = sp.AllocateShared(apps, s.effectivePool())
		} else {
			alloc, err = s.cfg.Policy.Allocate(apps, s.effectivePool())
		}
		if err != nil {
			return fmt.Errorf("jobs: policy %s: %w", s.cfg.Policy.Name(), err)
		}
		s.sharedUsers = map[string]bool{}
		for _, id := range sharedUsers {
			s.sharedUsers[id] = true
		}
	}

	for _, r := range s.running {
		n, ok := alloc[r.job.ID]
		if !ok {
			return fmt.Errorf("jobs: policy %s left %s unallocated", s.cfg.Policy.Name(), r.job.ID)
		}
		if r.alloc >= 0 && s.cfg.RemapDelay > 0 {
			// The running client only notices at its next mapping poll.
			if n != r.alloc {
				r.pendingAlloc = n
				r.pendingAt = s.t + s.cfg.RemapDelay
			} else {
				r.pendingAlloc = -1 // decision reverted before the poll
			}
			continue
		}
		if err := s.applyAlloc(r, n); err != nil {
			return err
		}
	}
	return nil
}

// applyAlloc makes an allocation effective for a running job. A job parked
// on the shared I/O node (allocation 0 without a direct-access option)
// progresses at the paper's naive estimate: bandwidth(1) divided by the
// number of running jobs.
func (s *sim) applyAlloc(r *runningJob, n int) error {
	bw, ok := r.app.Curve.At(n)
	if !ok && n == 0 && s.sharedUsers[r.job.ID] {
		bw1, ok1 := r.app.Curve.At(1)
		if !ok1 {
			return fmt.Errorf("jobs: shared user %s has no 1-ION point", r.job.ID)
		}
		bw = bw1 / units.Bandwidth(float64(len(s.running)))
		ok = true
	}
	if !ok {
		return fmt.Errorf("jobs: %s has no curve point at %d IONs", r.job.ID, n)
	}
	if r.alloc >= 0 && r.alloc != n {
		s.result.Reallocations++
	}
	if r.alloc != n {
		if k := len(r.timeline); k > 0 {
			r.timeline[k-1].End = s.t
		}
		r.timeline = append(r.timeline, AllocSpan{Start: s.t, IONs: n})
	}
	r.alloc = n
	r.rate = float64(bw)
	return nil
}

func (s *sim) finish(r *runningJob) {
	s.free += r.job.Spec.Nodes
	if k := len(r.timeline); k > 0 {
		r.timeline[k-1].End = s.t
	}
	bytes := r.job.Spec.TotalBytes()
	runtime := s.t - r.start
	var bw units.Bandwidth
	if runtime > 0 {
		bw = units.Bandwidth(float64(bytes) / runtime)
	}
	s.result.PerJob[r.job.ID] = &JobOutcome{
		ID:        r.job.ID,
		Label:     r.job.Spec.Label,
		Start:     r.start,
		End:       s.t,
		Bytes:     bytes,
		Bandwidth: bw,
		Timeline:  r.timeline,
	}
	if s.t > s.result.Makespan {
		s.result.Makespan = s.t
	}
}

// PaperQueue returns the §5.3 queue: at least one job of each application,
// in the paper's order — HACC, IOR-MPI, SIM, IOR-MPI, IOR-MPI, POSIX-S,
// POSIX-L, BT-C, MAD, MAD, S3D, HACC, HACC, BT-D. Submissions are staggered
// a few seconds apart, as in the generated queues of the paper's live run
// (the first HACC job runs alone briefly, receives 8 I/O nodes, and is
// reduced to 4 as IOR-MPI and SIM start — §5.3).
func PaperQueue() ([]QueuedJob, error) {
	order := []string{"HACC", "IOR-MPI", "SIM", "IOR-MPI", "IOR-MPI",
		"POSIX-S", "POSIX-L", "BT-C", "MAD", "MAD", "S3D", "HACC", "HACC", "BT-D"}
	const submitGap = 5.0 // seconds between submissions
	var out []QueuedJob
	count := map[string]int{}
	for i, label := range order {
		spec, err := perfmodel.AppByLabel(label)
		if err != nil {
			return nil, err
		}
		count[label]++
		out = append(out, QueuedJob{
			ID:      fmt.Sprintf("%s#%d", label, count[label]),
			Spec:    spec,
			Arrival: float64(i) * submitGap,
		})
	}
	return out, nil
}
