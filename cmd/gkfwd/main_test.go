package main

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/pfs"
	"repro/internal/rpc"
)

func TestKernelFor(t *testing.T) {
	for _, label := range []string{"BT-C", "HACC", "IOR-MPI", "POSIX-S", "POSIX-L", "MAD", "SIM", "S3D"} {
		k, err := kernelFor(label)
		if err != nil {
			t.Errorf("kernelFor(%q): %v", label, err)
			continue
		}
		if k.Name() != label {
			t.Errorf("kernelFor(%q) returned %q", label, k.Name())
		}
	}
	if _, err := kernelFor("NOPE"); err == nil {
		t.Error("unknown label should fail")
	}
	if _, err := kernelFor(" HACC "); err != nil {
		t.Errorf("labels should be trimmed: %v", err)
	}
}

// TestAppJobs: -apps runs each app on its full curve, direct access
// included, on exactly the compute nodes the apps occupy together.
func TestAppJobs(t *testing.T) {
	running, err := resolveApps([]string{"IOR-MPI", "HACC"})
	if err != nil {
		t.Fatal(err)
	}
	q, nodes := appJobs(running)
	if len(q) != 2 || q[0].ID != "IOR-MPI#1" || q[1].ID != "HACC#2" {
		t.Fatalf("jobs: %+v", q)
	}
	if want := running[0].spec.Nodes + running[1].spec.Nodes; nodes != want {
		t.Fatalf("compute nodes %d, want %d", nodes, want)
	}
	for _, j := range q {
		if _, ok := j.App.Curve.At(0); !ok {
			t.Errorf("%s: curve lacks the direct-access option", j.ID)
		}
	}
}

// recordingKernel is a kernel that only records the file system each run
// was given and how many I/O nodes it forwarded to.
type recordingKernel struct {
	given []pfs.FileSystem
	ions  []int
}

func (k *recordingKernel) Name() string { return "recorder" }

func (k *recordingKernel) Run(fs pfs.FileSystem, dir string) (apps.Report, error) {
	k.given = append(k.given, fs)
	k.ions = append(k.ions, len(fs.(*fwd.Client).IONs()))
	return apps.Report{}, nil
}

// TestSweepClosesEveryClient: -sweep makes one client per I/O-node count
// and closes each once its kernel returned, so none stays on the stack's
// follower list with its pooled connections until exit.
func TestSweepClosesEveryClient(t *testing.T) {
	st, err := livestack.Start(livestack.Config{IONs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k := &recordingKernel{}
	runSweep(st, app{label: "recorder", kernel: k}, 4)
	if len(k.given) != 4 { // k = 0, 1, 2, 4
		t.Fatalf("the kernel ran %d times, want 4", len(k.given))
	}
	for i, fs := range k.given {
		if err := fs.Create("/after-sweep"); !errors.Is(err, rpc.ErrClosed) {
			t.Errorf("client %d answers %v after the sweep, want rpc.ErrClosed", i, err)
		}
	}
}

// TestSweepVisitsFigure5Counts: -sweep runs the kernel at the I/O-node
// counts Figure 5 has for the app — direct access and each power of two
// that divides its compute nodes — never at a count the model has no
// point for. HACC runs on 8 nodes, so a 12-node pool sweeps 0, 1, 2, 4, 8.
func TestSweepVisitsFigure5Counts(t *testing.T) {
	cfg, plan, err := parseFlags([]string{"-ions", "12", "-sweep", "HACC"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := livestack.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k := &recordingKernel{}
	swept := *plan.sweep
	swept.kernel = k
	runSweep(st, swept, cfg.IONs)
	if want := []int{0, 1, 2, 4, 8}; !slices.Equal(k.ions, want) {
		t.Fatalf("the sweep visited %v I/O nodes, want %v", k.ions, want)
	}
}
