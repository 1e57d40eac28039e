package perfmodel

import (
	"math"
	"testing"

	"repro/internal/units"
)

func mbps(b units.Bandwidth) float64 { return b.MBps() }

func appAt(t *testing.T, label string, k int) float64 {
	t.Helper()
	a, err := AppByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	bw, ok := a.Curve.At(k)
	if !ok {
		t.Fatalf("%s has no point at %d IONs", label, k)
	}
	return mbps(bw)
}

func TestEvaluationAppsComplete(t *testing.T) {
	apps := EvaluationApps()
	if len(apps) != 9 {
		t.Fatalf("Table 3 lists 9 applications, got %d", len(apps))
	}
	for _, a := range apps {
		if a.Curve.Len() != 5 {
			t.Errorf("%s: want 5 curve points (0,1,2,4,8), got %d", a.Label, a.Curve.Len())
		}
		if a.Nodes <= 0 || a.Processes <= 0 || a.WriteBytes <= 0 {
			t.Errorf("%s: incomplete spec %+v", a.Label, a)
		}
		if a.Processes%a.Nodes != 0 {
			t.Errorf("%s: processes %d not divisible by nodes %d", a.Label, a.Processes, a.Nodes)
		}
	}
}

// TestPaperAnchors verifies every bandwidth number the paper states
// explicitly (Table 4 and the §5.3 text).
func TestPaperAnchors(t *testing.T) {
	anchors := []struct {
		label string
		k     int
		mbps  float64
	}{
		{"BT-C", 0, 195.7}, {"BT-C", 1, 77.6},
		{"BT-D", 1, 597.2}, {"BT-D", 2, 594.2},
		{"IOR-MPI", 1, 268.4}, {"IOR-MPI", 8, 5089.9},
		{"POSIX-L", 2, 411.9}, {"POSIX-L", 8, 1963.9},
		{"MAD", 0, 255.9}, {"MAD", 1, 77.8},
		{"S3D", 0, 241.3}, {"S3D", 2, 48.1},
		{"HACC", 1, 987.3}, {"HACC", 8, 3850.7},
	}
	for _, a := range anchors {
		if got := appAt(t, a.label, a.k); math.Abs(got-a.mbps) > 0.05 {
			t.Errorf("%s at %d IONs = %.1f MB/s, paper says %.1f", a.label, a.k, got, a.mbps)
		}
	}
}

// TestIORMPIClaim checks the text's claim that IOR-MPI is 18.96× faster
// with eight forwarders than with one.
func TestIORMPIClaim(t *testing.T) {
	ratio := appAt(t, "IOR-MPI", 8) / appAt(t, "IOR-MPI", 1)
	if math.Abs(ratio-18.96) > 0.05 {
		t.Fatalf("IOR-MPI 8-vs-1 ratio = %.2f, paper says 18.96", ratio)
	}
}

// TestHACCClaim checks the §5.3 claim that HACC with 8 I/O nodes is 3.9×
// its 1-I/O-node (STATIC) bandwidth.
func TestHACCClaim(t *testing.T) {
	ratio := appAt(t, "HACC", 8) / appAt(t, "HACC", 1)
	if math.Abs(ratio-3.9) > 0.05 {
		t.Fatalf("HACC 8-vs-1 ratio = %.2f, paper says 3.9", ratio)
	}
}

// TestOracleWeightIs36: the §5.2 six-application set must have a total
// ORACLE weight of exactly 36, the point where the paper reports MCKP
// matching the ORACLE upper bound.
func TestOracleWeightIs36(t *testing.T) {
	total := 0
	for _, a := range SectionFiveTwoApps() {
		total += a.Curve.Best().IONs
	}
	if total != 36 {
		t.Fatalf("ORACLE weight of §5.2 set = %d, want 36", total)
	}
}

// TestS3DPrefersDirect: the paper states MCKP gives S3D no I/O nodes
// because direct PFS access is its best option.
func TestS3DPrefersDirect(t *testing.T) {
	a, err := AppByLabel("S3D")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Curve.Best().IONs; got != 0 {
		t.Fatalf("S3D best = %d IONs, paper says 0", got)
	}
}

func TestAppByLabelUnknown(t *testing.T) {
	if _, err := AppByLabel("NOPE"); err == nil {
		t.Fatal("unknown label must error")
	}
}

func TestSectionFiveTwoApps(t *testing.T) {
	apps := SectionFiveTwoApps()
	if len(apps) != 6 {
		t.Fatalf("want 6 apps, got %d", len(apps))
	}
	want := map[string]bool{"BT-C": true, "BT-D": true, "IOR-MPI": true, "POSIX-L": true, "MAD": true, "S3D": true}
	for _, a := range apps {
		if !want[a.Label] {
			t.Errorf("unexpected app %s", a.Label)
		}
	}
}

func TestTotalBytes(t *testing.T) {
	a, _ := AppByLabel("BT-D")
	if got := a.TotalBytes(); got != gb(253.0) {
		t.Fatalf("BT-D total = %d, want %d (253 GB)", got, gb(253.0))
	}
}
