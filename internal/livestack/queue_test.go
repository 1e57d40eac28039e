package livestack

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/units"
)

// TestRunLiveQueuePaper executes the §5.3 queue live: 14 real kernels at
// tiny scale on 96 virtual compute nodes and 12 TCP I/O-node daemons,
// arbitrated by MCKP with dynamic re-arbitration on every start/finish.
func TestRunLiveQueuePaper(t *testing.T) {
	st, err := Start(Config{IONs: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	queue, err := PaperLiveQueue()
	if err != nil {
		t.Fatal(err)
	}
	if len(queue) != 14 {
		t.Fatalf("queue length %d", len(queue))
	}
	res, err := RunQueue(st, queue, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 14 {
		t.Fatalf("completed %d of 14 jobs", len(res.Reports))
	}
	var total int64
	for id, rep := range res.Reports {
		if rep.WriteBytes <= 0 || rep.Bandwidth <= 0 {
			t.Fatalf("%s: empty report %+v", id, rep)
		}
		total += rep.WriteBytes + rep.ReadBytes
	}
	// Every byte went through the daemons (direct access is disallowed:
	// all curves lack the 0-ION option, so the arbiter always assigns).
	var daemonBytes int64
	for _, d := range st.Daemons {
		s := d.Stats()
		daemonBytes += s.BytesIn + s.BytesOut
	}
	if daemonBytes != total {
		t.Fatalf("daemons saw %d bytes, kernels moved %d — some traffic bypassed forwarding",
			daemonBytes, total)
	}
	// FIFO: BT-D (64 nodes) cannot overlap the 64-node POSIX-L job.
	if res.Start["BT-D#1"] < res.End["POSIX-L#1"] && res.Start["POSIX-L#1"] < res.End["BT-D#1"] {
		// Overlap is allowed only if 64+64 ≤ 96 is false — so they must
		// not overlap at all.
		t.Fatalf("two 64-node jobs overlapped: POSIX-L [%v,%v] BT-D [%v,%v]",
			res.Start["POSIX-L#1"], res.End["POSIX-L#1"], res.Start["BT-D#1"], res.End["BT-D#1"])
	}
	t.Logf("live queue of 14 jobs finished in %v; %s moved through 12 I/O nodes",
		res.Elapsed.Round(1e6), formatBytes(total))
}

// TestRunLiveQueueHoldsJobsThePoolCannotServe: on 4 I/O nodes the §5.3
// queue admits more jobs by compute nodes than MCKP can give at least one
// I/O node each (the queue's curves have no direct-access option). Such a
// job waits at the head of the queue for a running job to finish instead
// of failing the run.
func TestRunLiveQueueHoldsJobsThePoolCannotServe(t *testing.T) {
	st, err := Start(Config{IONs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	queue, err := PaperLiveQueue()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunQueue(st, queue, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(queue) {
		t.Fatalf("completed %d of %d jobs", len(res.Reports), len(queue))
	}
	for i := 1; i < len(queue); i++ {
		if prev, id := queue[i-1].ID, queue[i].ID; res.Start[id] < res.Start[prev] {
			t.Errorf("FIFO violated: %s started at %v, before %s at %v", id, res.Start[id], prev, res.Start[prev])
		}
	}
	for id, addrs := range res.IONs {
		if len(addrs) == 0 {
			t.Errorf("%s started without an I/O node", id)
		}
	}
	t.Logf("%d starts found the pool full and were held",
		st.Telemetry.Counter("arbiter_solve_errors_total").Value())
}

// TestRunQueueClosesClients: each job's forwarding client is closed when
// its kernel returns, so it leaves the stack's follower list and its
// pooled connections go with it.
func TestRunQueueClosesClients(t *testing.T) {
	st, err := Start(Config{IONs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	queue, err := PaperLiveQueue()
	if err != nil {
		t.Fatal(err)
	}
	k := &capturingKernel{}
	queue = queue[:1]
	queue[0].Kernel = k
	if _, err := RunQueue(st, queue, 96); err != nil {
		t.Fatal(err)
	}
	if _, err := k.fs.Stat("/x"); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("job's file system after RunQueue: %v, want rpc.ErrClosed", err)
	}
}

// TestRunQueueStartFailureWaitsForStartedJobs: when a job cannot start
// (here it has no option within the pool), RunQueue starts nothing more
// and returns only after the jobs already running have finished, so no
// job is left registered with the arbiter.
func TestRunQueueStartFailureWaitsForStartedJobs(t *testing.T) {
	st, err := Start(Config{IONs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	solveErrors := st.Telemetry.Counter("arbiter_solve_errors_total")
	job := func(id string, ions int, k apps.Kernel) LiveJob {
		curve := perfmodel.NewCurve(perfmodel.Point{IONs: ions, Bandwidth: units.BandwidthFromMBps(100)})
		return LiveJob{ID: id, App: policy.Application{ID: id, Nodes: 1, Processes: 1, Curve: curve}, Kernel: k}
	}
	after := &capturingKernel{}
	queue := []LiveJob{
		job("A", 1, waitingKernel{func() bool { return solveErrors.Value() > 0 }}),
		job("B", 4, failingKernel{}),
		job("C", 1, after),
	}
	_, err = RunQueue(st, queue, 96)
	if err == nil || !strings.Contains(err.Error(), "start B") {
		t.Fatalf("start failure not surfaced: %v", err)
	}
	if running := st.Arbiter.Running(); len(running) != 0 {
		t.Fatalf("RunQueue returned with %d jobs still registered: %v", len(running), running)
	}
	if after.fs != nil {
		t.Fatal("a job behind the failed start ran")
	}
}

// capturingKernel keeps the file system its job ran on.
type capturingKernel struct{ fs pfs.FileSystem }

func (*capturingKernel) Name() string { return "CAPTURE" }
func (k *capturingKernel) Run(fs pfs.FileSystem, dir string) (apps.Report, error) {
	k.fs = fs
	return apps.Report{}, nil
}

// waitingKernel returns once until holds, or fails after ten seconds.
type waitingKernel struct{ until func() bool }

func (waitingKernel) Name() string { return "WAIT" }
func (k waitingKernel) Run(fs pfs.FileSystem, dir string) (apps.Report, error) {
	for deadline := time.Now().Add(10 * time.Second); !k.until(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return apps.Report{}, errors.New("timed out waiting for the failed start")
		}
	}
	return apps.Report{}, nil
}

func formatBytes(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%d B", n)
}

// TestRunQueueValidation covers the error paths.
func TestRunQueueValidation(t *testing.T) {
	st, err := Start(Config{IONs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := RunQueue(st, nil, 96); err == nil {
		t.Fatal("empty queue should fail")
	}
	queue, err := PaperLiveQueue()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunQueue(st, queue[:1], 4); err == nil {
		t.Fatal("oversized job should fail")
	}
}

// TestRunQueueSurfacesKernelFailure: a failing kernel mid-queue aborts the
// run with its error instead of hanging or silently succeeding.
func TestRunQueueSurfacesKernelFailure(t *testing.T) {
	st, err := Start(Config{IONs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	queue, err := PaperLiveQueue()
	if err != nil {
		t.Fatal(err)
	}
	queue = queue[:3]
	queue[1].Kernel = failingKernel{}
	_, err = RunQueue(st, queue, 96)
	if err == nil || !strings.Contains(err.Error(), "injected kernel failure") {
		t.Fatalf("kernel failure not surfaced: %v", err)
	}
}

type failingKernel struct{}

func (failingKernel) Name() string { return "FAIL" }
func (failingKernel) Run(fs pfs.FileSystem, dir string) (apps.Report, error) {
	return apps.Report{}, errors.New("injected kernel failure")
}
