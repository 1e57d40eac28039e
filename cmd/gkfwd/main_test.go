package main

import "testing"

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
