package main

import (
	"errors"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/policy"
)

func TestCheckReadBackFiresOnOneFlippedByte(t *testing.T) {
	want := randomBytes(newRNG(1, 9), 4096)
	got := append([]byte(nil), want...)
	if !checkReadBack(got, len(got), nil, want) {
		t.Fatal("identical buffers rejected")
	}
	got[1234] ^= 0x10
	if checkReadBack(got, len(got), nil, want) {
		t.Error("a flipped byte went unnoticed")
	}
	got[1234] ^= 0x10
	if checkReadBack(got, len(got)-1, nil, want) {
		t.Error("a short read went unnoticed")
	}
	if checkReadBack(got, len(got), errors.New("boom"), want) {
		t.Error("a failed read went unnoticed")
	}
}

func TestChecksCountAttemptsAndFailures(t *testing.T) {
	var c checks
	c.expect(true, "fine")
	c.expect(false, "broke %d", 1)
	if c.attempted != 2 || c.failed != 1 || len(c.msgs) != 1 || c.msgs[0] != "broke 1" {
		t.Errorf("checks = %+v", c)
	}
}

func TestPolicyQuality(t *testing.T) {
	curve := perfmodel.NewCurve(
		perfmodel.Point{IONs: 0, Bandwidth: mbps(100)},
		perfmodel.Point{IONs: 1, Bandwidth: mbps(50)},
		perfmodel.Point{IONs: 4, Bandwidth: mbps(400)},
	)
	a := policy.Application{ID: "a", Curve: curve}
	b := policy.Application{ID: "b", Curve: curve}
	var q policyQuality
	// a holds 4 nodes (400 of 400), b holds 1 (50 of 400).
	if !q.add([]policy.Application{a, b}, map[string][]string{"a": {"w", "x", "y", "z"}, "b": {"v"}}) {
		t.Fatal("on-curve allocation rejected")
	}
	if got := q.efficiency(); got != 450.0/800.0 {
		t.Errorf("efficiency = %v, want %v", got, 450.0/800.0)
	}
	if q.maxDilation != 8 {
		t.Errorf("max dilation = %v, want 8", q.maxDilation)
	}
	// Two nodes is not a point of the curve: the check must fire.
	if q.add([]policy.Application{a}, map[string][]string{"a": {"x", "y"}}) {
		t.Error("an allocation off the curve was accepted")
	}
	if one := curveQuality(peakedApp("p", 4), 4); one.efficiency() != 1 || one.maxDilation != 1 {
		t.Errorf("a job granted its peak scores %+v, want efficiency 1 and dilation 1", one)
	}
	if starved := curveQuality(peakedApp("p", 4), 1); starved.efficiency() != 0.25 || starved.maxDilation != 4 {
		t.Errorf("a job granted 1 of 4 scores %+v, want efficiency 0.25 and dilation 4", starved)
	}
}

// Every end-of-run check of a forwarded workload is live: a clean run
// passes all of them, and each tampering below makes one fire.
func TestDataPlaneChecksAreLive(t *testing.T) {
	scratchBase = t.TempDir()
	w, _ := findWorkload("small_guarded")
	chk := &checks{}
	drv := newSmallDriver(11, chk)
	env, err := startDataPlane(w, drv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	for i := 0; i < 2000; i++ {
		drv.step()
	}
	checkDataPlane(w, env, drv, chk)
	if chk.failed != 0 {
		t.Fatalf("clean run failed %d checks: %v", chk.failed, chk.msgs)
	}

	tamper := func(name string, do, undo func()) {
		t.Helper()
		do()
		c := &checks{}
		checkDataPlane(w, env, drv, c)
		undo()
		if c.failed != 1 {
			t.Errorf("%s: %d checks fired, want 1: %v", name, c.failed, c.msgs)
		}
	}
	tamper("byte conservation", func() { drv.sent++ }, func() { drv.sent-- })
	tamper("allocation size", func() { env.granted-- }, func() { env.granted++ })

	// A byte that differs between file and shadow is caught by the next
	// read of that block.
	drv.shadow[8192] ^= 1
	n, err := drv.c.Read(smallPath, 8192, drv.rbuf)
	if checkReadBack(drv.rbuf, n, err, drv.shadow[8192:8192+smallReq]) {
		t.Error("a read that differs from the shadow copy went unnoticed")
	}
}

func TestDirectPathCheckFires(t *testing.T) {
	w, _ := findWorkload("small_mixed")
	chk := &checks{}
	drv := newSmallDriver(12, chk)
	env, err := startDataPlane(w, drv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	// Finishing the job empties the allocation: ops now go straight to
	// the PFS, which a forwarded workload must report.
	if err := env.st.Arbiter.JobFinished(appID); err != nil {
		t.Fatal(err)
	}
	if !spin(func() bool { return len(env.c.IONs()) == 0 }) {
		t.Fatal("client kept its allocation")
	}
	drv.step()
	checkDataPlane(w, env, drv, chk)
	if chk.failed < 2 { // the direct op and the lost allocation
		t.Errorf("direct-path run passed: %d failures %v", chk.failed, chk.msgs)
	}
}

func TestChurnChecksAreLive(t *testing.T) {
	scratchBase = t.TempDir()
	env, err := startChurn(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	chk := &checks{}
	drv := &churnDriver{env: env, chk: chk, gen: newChurnGen(5)}
	for i := 0; i < 300; i++ {
		drv.step()
	}
	if drv.err != nil {
		t.Fatal(drv.err)
	}
	// A client that stopped following the bus is caught.
	stale := &checks{}
	env.maps++
	checkFollowers(env, stale)
	env.maps--
	if stale.failed != len(env.clients) {
		t.Errorf("stale-client check fired %d times, want %d", stale.failed, len(env.clients))
	}
	checkFollowers(env, chk)
	if err := checkRecovery(env, chk); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 0 {
		t.Errorf("clean churn run failed %d checks: %v", chk.failed, chk.msgs)
	}
	if sameAssignment(map[string][]string{"a": {"x"}}, map[string][]string{"a": {"y"}}) ||
		!sameAssignment(map[string][]string{"a": {"x", "y"}}, map[string][]string{"a": {"y", "x"}}) {
		t.Error("sameAssignment must compare per-job address sets")
	}
}

// Policy quality is a function of the seed alone.
func TestChurnQualityDependsOnSeedOnly(t *testing.T) {
	chk := &checks{}
	a, err := churnQuality(3, chk)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := churnQuality(3, chk)
	c, _ := churnQuality(4, chk)
	if a != b {
		t.Errorf("same seed scored %+v then %+v", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 scored the same %+v", a)
	}
	if chk.failed != 0 || a.n != qualityDecisions || a.efficiency() <= 0 || a.efficiency() > 1 || a.maxDilation < 1 {
		t.Errorf("implausible policy quality %+v (failed checks: %v)", a, chk.msgs)
	}
}
