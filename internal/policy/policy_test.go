package policy

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/testkit"
	"repro/internal/units"
)

// fiveTwoApps returns the §5.2 six-application set as policy Applications.
func fiveTwoApps(t *testing.T) []Application {
	t.Helper()
	specs := perfmodel.SectionFiveTwoApps()
	apps := make([]Application, 0, len(specs))
	for _, s := range specs {
		apps = append(apps, FromAppSpec(s.Label, s))
	}
	return apps
}

func mustAllocate(t *testing.T, p Policy, apps []Application, avail int) Allocation {
	t.Helper()
	alloc, err := p.Allocate(apps, avail)
	if err != nil {
		t.Fatalf("%s.Allocate: %v", p.Name(), err)
	}
	return alloc
}

func TestZeroPolicy(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Zero{}, apps, 12)
	for id, n := range alloc {
		if n != 0 {
			t.Errorf("ZERO gave %s %d nodes", id, n)
		}
	}
}

func TestZeroPolicyFailsWithoutDirectOption(t *testing.T) {
	apps := []Application{{
		ID: "x", Nodes: 8, Processes: 8,
		Curve: perfmodel.NewCurve(perfmodel.Point{IONs: 1, Bandwidth: 1}),
	}}
	if _, err := (Zero{}).Allocate(apps, 4); err == nil {
		t.Fatal("ZERO should fail when an app has no 0-ION point")
	}
}

func TestOnePolicy(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, One{}, apps, 12)
	for id, n := range alloc {
		if n != 1 {
			t.Errorf("ONE gave %s %d nodes", id, n)
		}
	}
}

// TestTable4Static: with the six §5.2 applications and 12 available I/O
// nodes, STATIC must reproduce Table 4 exactly.
func TestTable4Static(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Static{}, apps, 12)
	want := Allocation{"BT-C": 1, "BT-D": 2, "IOR-MPI": 1, "POSIX-L": 2, "MAD": 1, "S3D": 2}
	for id, n := range want {
		if alloc[id] != n {
			t.Errorf("STATIC %s = %d, Table 4 says %d (full: %v)", id, alloc[id], n, alloc)
		}
	}
}

// TestTable4Size: SIZE coincides with STATIC in the Table 4 setting.
func TestTable4Size(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Proportional{}, apps, 12)
	want := Allocation{"BT-C": 1, "BT-D": 2, "IOR-MPI": 1, "POSIX-L": 2, "MAD": 1, "S3D": 2}
	for id, n := range want {
		if alloc[id] != n {
			t.Errorf("SIZE %s = %d, Table 4 says %d (full: %v)", id, alloc[id], n, alloc)
		}
	}
}

// TestProcessPolicyDropsMAD: PROCESS divides by client processes; MAD's 64
// processes round to a zero share (the reason the paper reports PROCESS at
// 4.1× rather than SIZE's 4.59×).
func TestProcessPolicyDropsMAD(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Proportional{ByProcesses: true}, apps, 12)
	want := Allocation{"BT-C": 1, "BT-D": 2, "IOR-MPI": 1, "POSIX-L": 2, "MAD": 0, "S3D": 2}
	for id, n := range want {
		if alloc[id] != n {
			t.Errorf("PROCESS %s = %d, want %d (full: %v)", id, alloc[id], n, alloc)
		}
	}
}

// TestTable4MCKP: the headline reproduction — MCKP at 12 I/O nodes must
// pick Table 4's allocation: BT-C 0, BT-D 1, IOR-MPI 8, POSIX-L 2, MAD 0,
// S3D 0.
func TestTable4MCKP(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, MCKP{}, apps, 12)
	want := Allocation{"BT-C": 0, "BT-D": 1, "IOR-MPI": 8, "POSIX-L": 2, "MAD": 0, "S3D": 0}
	for id, n := range want {
		if alloc[id] != n {
			t.Errorf("MCKP %s = %d, Table 4 says %d (full: %v)", id, alloc[id], n, alloc)
		}
	}
	if alloc.Total() > 12 {
		t.Fatalf("MCKP overweight: %d > 12", alloc.Total())
	}
}

// TestFigure6Ratios: at 12 available I/O nodes the paper reports MCKP
// outperforming STATIC and SIZE by 4.59× and PROCESS by 4.1×.
func TestFigure6Ratios(t *testing.T) {
	apps := fiveTwoApps(t)
	bw := func(p Policy) float64 {
		alloc := mustAllocate(t, p, apps, 12)
		sum, err := SumBandwidth(apps, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return sum.MBps()
	}
	mckp := bw(MCKP{})
	if r := mckp / bw(Static{}); math.Abs(r-4.59) > 0.02 {
		t.Errorf("MCKP/STATIC = %.3f, paper says 4.59", r)
	}
	if r := mckp / bw(Proportional{}); math.Abs(r-4.59) > 0.02 {
		t.Errorf("MCKP/SIZE = %.3f, paper says 4.59", r)
	}
	if r := mckp / bw(Proportional{ByProcesses: true}); math.Abs(r-4.1) > 0.02 {
		t.Errorf("MCKP/PROCESS = %.3f, paper says 4.1", r)
	}
}

// TestMCKPMatchesOracleAt36: the paper reports MCKP reaching the ORACLE
// bound once 36 I/O nodes are available — and not before.
func TestMCKPMatchesOracleAt36(t *testing.T) {
	apps := fiveTwoApps(t)
	oracleAlloc := mustAllocate(t, Oracle{}, apps, 0)
	oracleBW, err := SumBandwidth(apps, oracleAlloc)
	if err != nil {
		t.Fatal(err)
	}
	at := func(n int) units.Bandwidth {
		alloc := mustAllocate(t, MCKP{}, apps, n)
		bw, err := SumBandwidth(apps, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return bw
	}
	if got := at(36); math.Abs(got.MBps()-oracleBW.MBps()) > 1e-6 {
		t.Errorf("MCKP at 36 = %v, ORACLE = %v; paper says they match", got, oracleBW)
	}
	if got := at(32); got >= oracleBW {
		t.Errorf("MCKP at 32 (%v) should still trail ORACLE (%v)", got, oracleBW)
	}
}

// TestMCKPNeverBelowStatic: by optimality, MCKP's aggregate bandwidth is
// at least STATIC's at every pool size (Fig. 3's minimum ratio ≥ 1).
func TestMCKPNeverBelowStatic(t *testing.T) {
	apps := fiveTwoApps(t)
	for n := 6; n <= 48; n++ {
		staticAlloc, err := (Static{}).Allocate(apps, n)
		if err != nil {
			continue
		}
		staticBW, err := SumBandwidth(apps, staticAlloc)
		if err != nil {
			t.Fatal(err)
		}
		mckpAlloc := mustAllocate(t, MCKP{}, apps, n)
		mckpBW, err := SumBandwidth(apps, mckpAlloc)
		if err != nil {
			t.Fatal(err)
		}
		if float64(mckpBW) < float64(staticBW)-1e-6 {
			t.Fatalf("at %d IONs MCKP (%v) below STATIC (%v)", n, mckpBW, staticBW)
		}
	}
}

// TestMCKPMonotoneInPool: more available I/O nodes never reduce MCKP's
// aggregate bandwidth.
func TestMCKPMonotoneInPool(t *testing.T) {
	apps := fiveTwoApps(t)
	prev := -1.0
	for n := 0; n <= 40; n++ {
		alloc := mustAllocate(t, MCKP{}, apps, n)
		bw, err := SumBandwidth(apps, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if float64(bw) < prev-1e-6 {
			t.Fatalf("aggregate decreased at pool=%d", n)
		}
		prev = float64(bw)
	}
}

// TestMCKPRespectsPool: the allocation total never exceeds the pool.
func TestMCKPRespectsPool(t *testing.T) {
	apps := fiveTwoApps(t)
	for n := 0; n <= 40; n++ {
		alloc := mustAllocate(t, MCKP{}, apps, n)
		if alloc.Total() > n {
			t.Fatalf("pool %d: allocated %d", n, alloc.Total())
		}
	}
}

// TestMCKPFallbackForUncharacterizedApps: an application without curve data
// receives the STATIC default (§3.1) and the rest are optimized.
func TestMCKPFallbackForUncharacterizedApps(t *testing.T) {
	apps := fiveTwoApps(t)
	known := mustAllocate(t, MCKP{}, apps, 5)
	// A 16-node job with no curve, alone among the uncharacterized: its
	// STATIC share of 13 I/O nodes is 8, the largest power of two dividing
	// 16 within 13.
	alloc := mustAllocate(t, MCKP{}, append(apps, Application{ID: "NEW", Nodes: 16, Processes: 128}), 13)
	if alloc["NEW"] != 8 {
		t.Fatalf("uncharacterized app should get the STATIC allocation 8, got %d", alloc["NEW"])
	}
	if alloc.Total() > 13 {
		t.Fatalf("total %d exceeds pool", alloc.Total())
	}
	// The characterized apps must still get the MCKP optimum for the
	// remaining 5 nodes.
	for id, n := range known {
		if alloc[id] != n {
			t.Fatalf("known apps not optimized after fallback: %v, want %v for them", alloc, known)
		}
	}
}

func TestStaticMachineRatio(t *testing.T) {
	// §5.3 deployment: 96 compute nodes, 12 I/O nodes → R = 8.
	apps := []Application{
		FromAppSpec("HACC", mustSpec(t, "HACC")),       // 8 nodes → 1
		FromAppSpec("POSIX-L", mustSpec(t, "POSIX-L")), // 64 nodes → 8
	}
	alloc := mustAllocate(t, Static{SystemCompute: 96, SystemIONs: 12}, apps, 12)
	if alloc["HACC"] != 1 || alloc["POSIX-L"] != 8 {
		t.Fatalf("machine-ratio STATIC: %v, want HACC=1 POSIX-L=8 (paper §5.3)", alloc)
	}
}

func mustSpec(t *testing.T, label string) perfmodel.AppSpec {
	t.Helper()
	s, err := perfmodel.AppByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrimToFit(t *testing.T) {
	apps := fiveTwoApps(t)
	// Pool of 6 forces STATIC's tentative 9 total down.
	alloc := mustAllocate(t, Static{}, apps, 6)
	if alloc.Total() > 6 {
		t.Fatalf("trim failed: total %d", alloc.Total())
	}
	for id, n := range alloc {
		if n < 0 {
			t.Fatalf("negative allocation for %s", id)
		}
	}
}

func TestOraclePicksCurvePeaks(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Oracle{}, apps, 0)
	want := Allocation{"BT-C": 8, "BT-D": 8, "IOR-MPI": 8, "POSIX-L": 8, "MAD": 4, "S3D": 0}
	for id, n := range want {
		if alloc[id] != n {
			t.Errorf("ORACLE %s = %d, want %d", id, alloc[id], n)
		}
	}
	if alloc.Total() != 36 {
		t.Fatalf("ORACLE weight = %d, want 36", alloc.Total())
	}
}

func TestEmptyApplications(t *testing.T) {
	for _, p := range []Policy{Zero{}, One{}, Static{}, Proportional{}, Proportional{ByProcesses: true}, Oracle{}, MCKP{}} {
		if _, err := p.Allocate(nil, 10); err == nil {
			t.Errorf("%s should reject an empty application set", p.Name())
		}
	}
}

func TestSumBandwidthErrors(t *testing.T) {
	apps := fiveTwoApps(t)
	if _, err := SumBandwidth(apps, Allocation{}); err == nil {
		t.Fatal("missing allocation entry should error")
	}
	bad := Allocation{}
	for _, a := range apps {
		bad[a.ID] = 3 // not a curve point
	}
	if _, err := SumBandwidth(apps, bad); err == nil {
		t.Fatal("non-option allocation should error")
	}
}

// TestSumBandwidthIsEquation2: the paper's Equation 2 aggregate, Σ volume /
// runtime with each runtime the volume over the curve bandwidth at the
// allocation, is the sum of the per-application curve bandwidths.
func TestSumBandwidthIsEquation2(t *testing.T) {
	apps := fiveTwoApps(t)
	for _, avail := range []int{0, 6, 12, 36} {
		alloc := mustAllocate(t, MCKP{}, apps, avail)
		sum, err := SumBandwidth(apps, alloc)
		if err != nil {
			t.Fatal(err)
		}
		eq2 := 0.0
		for _, a := range apps {
			bw, _ := a.Curve.At(alloc[a.ID])
			vol := float64(a.WriteBytes + a.ReadBytes)
			if vol <= 0 || bw <= 0 {
				t.Fatalf("%s: volume %v, bandwidth %v at %d IONs", a.ID, vol, bw, alloc[a.ID])
			}
			runtime := vol / float64(bw)
			eq2 += vol / runtime
		}
		if math.Abs(sum.MBps()-units.Bandwidth(eq2).MBps()) > 1e-6 {
			t.Fatalf("%d IONs: SumBandwidth %v != Equation 2 %v", avail, sum, units.Bandwidth(eq2))
		}
	}
}

// TestSumBandwidthIgnoresWeight: a QoS weight changes what MCKP optimises,
// never the bandwidth the aggregate reports for a given allocation.
func TestSumBandwidthIgnoresWeight(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, Static{}, apps, 12)
	want, err := SumBandwidth(apps, alloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range apps {
		apps[i].Weight = float64(i + 2)
	}
	got, err := SumBandwidth(apps, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("weights moved the aggregate: %v → %v", want, got)
	}
}

func TestAllocationTotal(t *testing.T) {
	a := Allocation{"x": 2, "y": 0, "z": 8}
	if a.Total() != 10 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestPolicyNames(t *testing.T) {
	names := []struct {
		p    Policy
		want string
	}{
		{Zero{}, "ZERO"}, {One{}, "ONE"}, {Static{}, "STATIC"},
		{Proportional{}, "SIZE"}, {Proportional{ByProcesses: true}, "PROCESS"},
		{Oracle{}, "ORACLE"}, {MCKP{}, "MCKP"},
	}
	for _, c := range names {
		if c.p.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.p.Name(), c.want)
		}
	}
}

func TestExplain(t *testing.T) {
	apps := fiveTwoApps(t)
	alloc := mustAllocate(t, MCKP{}, apps, 12)
	exps, err := Explain(apps, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 6 {
		t.Fatalf("explanations: %d", len(exps))
	}
	byID := map[string]Explanation{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	// IOR-MPI gets its global best at 12 IONs: 100%, not sacrificed.
	if e := byID["IOR-MPI"]; e.PctOfBest < 99.9 || e.Sacrificed {
		t.Fatalf("IOR-MPI explanation: %+v", e)
	}
	// BT-C is held at 0 IONs (195.7) vs its alone-best 400 at 8: sacrificed.
	if e := byID["BT-C"]; !e.Sacrificed || e.BestIONs != 8 {
		t.Fatalf("BT-C explanation: %+v", e)
	}
	// Errors for missing allocations.
	if _, err := Explain(apps, Allocation{}); err == nil {
		t.Fatal("missing allocation should fail")
	}
}

// TestMCKPAllocateAllocationPin: the MCKP policy builds its problem from
// one items backing and one class slice, and the solver's tables are flat,
// so the §5.2 six-application solve allocates a fixed handful of objects.
func TestMCKPAllocateAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	apps := fiveTwoApps(t)
	got := testing.AllocsPerRun(100, func() { mustAllocate(t, MCKP{}, apps, 12) })
	if got > 3 {
		t.Fatalf("MCKP.Allocate allocates %v objects, want ≤ 3 (the Allocation map and the solver's Choice)", got)
	}
}

// TestMCKPAllocatePooledScratchConcurrent: MCKP.Allocate from 8 goroutines
// at once returns what a serial run returned, on every window of the §5.2
// applications (one with no curve, taking the STATIC fallback) at pools 0
// to 16, so a pooled problem never carries one solve into another. Run it
// under -race.
func TestMCKPAllocatePooledScratchConcurrent(t *testing.T) {
	apps := append(fiveTwoApps(t), Application{ID: "NEW", Nodes: 16, Processes: 128})
	type input struct {
		apps []Application
		pool int
	}
	var inputs []input
	var want []string
	for lo := range apps {
		for hi := lo + 1; hi <= len(apps); hi++ {
			for pool := 0; pool <= 16; pool++ {
				alloc, err := MCKP{}.Allocate(apps[lo:hi], pool)
				inputs = append(inputs, input{apps[lo:hi], pool})
				want = append(want, fmt.Sprint(alloc, err))
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range inputs {
				i := (g*len(inputs)/8 + j) % len(inputs)
				alloc, err := MCKP{}.Allocate(inputs[i].apps, inputs[i].pool)
				if got := fmt.Sprint(alloc, err); got != want[i] {
					t.Errorf("goroutine %d, input %d: got %s, serial %s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
