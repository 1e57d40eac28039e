package livestack

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/jobs"
	"repro/internal/policy"
)

// LiveJob is one entry of a live FIFO queue: the arbitration-facing
// application description plus the kernel that actually performs the I/O.
type LiveJob struct {
	ID string
	// App carries the job geometry and bandwidth curve for the arbiter.
	App policy.Application
	// Kernel is the I/O workload run through the forwarding client.
	Kernel apps.Kernel
}

// LiveQueueResult is the outcome of RunQueue.
type LiveQueueResult struct {
	Reports map[string]apps.Report
	// Start/End record each job's span relative to the queue start.
	Start, End map[string]time.Duration
	Elapsed    time.Duration
}

// RunQueue executes a strict-FIFO queue of live jobs on the stack: a job
// starts when enough virtual compute nodes are free, registers with the
// arbiter (triggering a re-arbitration exactly as in §5.3), runs its
// kernel through a mapping-subscribed forwarding client, and releases its
// resources on completion. It is the live counterpart of
// jobs.SimulateQueue, at whatever scale the kernels are configured for.
func RunQueue(st *Stack, queue []LiveJob, computeNodes int) (*LiveQueueResult, error) {
	if len(queue) == 0 {
		return nil, errors.New("livestack: empty queue")
	}
	for _, j := range queue {
		if j.App.Nodes > computeNodes {
			return nil, fmt.Errorf("livestack: %s needs %d nodes, cluster has %d", j.ID, j.App.Nodes, computeNodes)
		}
	}

	var (
		mu     sync.Mutex
		cond   = sync.Cond{L: &mu}
		free   = computeNodes
		result = &LiveQueueResult{
			Reports: map[string]apps.Report{},
			Start:   map[string]time.Duration{},
			End:     map[string]time.Duration{},
		}
		firstErr error
		wg       sync.WaitGroup
	)
	t0 := time.Now()

	for _, job := range queue {
		// Strict FIFO admission: wait for the head job's nodes.
		mu.Lock()
		for free < job.App.Nodes && firstErr == nil {
			cond.Wait()
		}
		if firstErr != nil {
			mu.Unlock()
			break
		}
		free -= job.App.Nodes
		result.Start[job.ID] = time.Since(t0)
		mu.Unlock()

		client, err := st.NewClient(job.ID)
		if err != nil {
			return nil, err
		}
		if _, err := st.Arbiter.JobStarted(job.App); err != nil {
			return nil, fmt.Errorf("livestack: start %s: %w", job.ID, err)
		}
		// Concurrent starts/finishes re-arbitrate continuously, so the
		// exact count may already have changed; the job only needs to
		// observe *a* forwarding allocation before issuing I/O (the
		// queue's curves have no direct-access option).
		if err := WaitForAllocation(client, 0, 5*time.Second); err != nil {
			return nil, fmt.Errorf("livestack: %s: %w", job.ID, err)
		}

		wg.Add(1)
		go func(job LiveJob) {
			defer wg.Done()
			rep, err := job.Kernel.Run(client, "/"+job.ID)
			finErr := st.Arbiter.JobFinished(job.ID)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				err = finErr
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("livestack: job %s: %w", job.ID, err)
			}
			result.Reports[job.ID] = rep
			result.End[job.ID] = time.Since(t0)
			free += job.App.Nodes
			cond.Broadcast()
		}(job)
	}

	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	result.Elapsed = time.Since(t0)
	return result, nil
}

// PaperLiveQueue builds the §5.3 queue with tiny-scale kernels: the FIFO
// order, job IDs and job geometries of jobs.PaperQueue, with kilobyte-scale
// volumes so a live run completes in seconds. The §5.3 setup disallows
// direct access, so each curve's 0-ION point is dropped.
func PaperLiveQueue() ([]LiveJob, error) {
	queue, err := jobs.PaperQueue()
	if err != nil {
		return nil, err
	}
	tiny := apps.TinyRegistry()
	var out []LiveJob
	for _, q := range queue {
		kernelLabel := q.Spec.Label
		if kernelLabel == "BT-D" {
			kernelLabel = "BT-C" // tiny registry has one BT-IO variant
		}
		k, ok := tiny[kernelLabel]
		if !ok {
			return nil, fmt.Errorf("livestack: no tiny kernel for %s", q.Spec.Label)
		}
		app := policy.FromAppSpec(q.ID, q.Spec)
		app.Curve = app.Curve.Forwarded()
		out = append(out, LiveJob{ID: q.ID, App: app, Kernel: k})
	}
	return out, nil
}
