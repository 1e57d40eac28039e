package scenario

// Control-plane blackout (`make blackout`): a 12-ION journaled stack, two
// apps rewriting their regions, and the control plane SIGKILLed twice while
// the data plane keeps serving — once clean, once with an allocated I/O
// node dying in the dark — and warm-restarted from the journal each time,
// with a job started between the two to prove the recovered arbiter is
// live. Beyond the oracle set (no-shrink, fence and corpse checks run at
// each recovery): no write stalls past its budget, a write stamped with a
// revoked epoch applies nothing, and the journal shows the blackouts.

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/rpc"
)

func TestBlackoutWritesSurviveControlPlaneCrash(t *testing.T) {
	seed := Seed(t, "blackout", 1)
	r, _ := start(t, "blackout")
	apps := []*App{
		{ID: "bo0", Label: "IOR-MPI", Writers: 4, Segments: 8, Size: 8192},
		{ID: "bo1", Label: "HACC", Writers: 4, Segments: 8, Size: 8192},
	}
	r.Open(apps...)
	run := r.Drive(Workload{Rewrite: true}, apps...)

	rep, err := r.Unleash(Nemesis{Seed: seed, Script: []Fault{Blackout}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Open(&App{ID: "bolate", Label: "BT-C"}) // a fresh job on the recovered arbiter
	dark, err := r.Unleash(Nemesis{Seed: seed + 1, Script: []Fault{BlackoutKill}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Stop()
	if t.Failed() {
		t.FailNow()
	}
	r.Check(t, apps...)

	// The control plane is not on the write path: no write — before,
	// during or after a blackout — stalls past the budget.
	for _, a := range apps {
		if stall := a.Latency(1); stall > 10*time.Second {
			t.Fatalf("a write of %s stalled %v across the blackouts", a.ID, stall)
		}
	}

	// Zero fenced writes applied, probed directly: a write stamped with
	// epoch 1 — revoked by both recoveries — is rejected by a live daemon
	// that never died, and leaves no bytes; restamped current, it applies.
	target := r.Arbiter.Pool()[0]
	for _, a := range r.Arbiter.Pool() {
		if !slices.Contains(dark.Killed, a) {
			target = a
		}
	}
	rejected := r.Metric("epoch_fence_rejections_total")
	raw := rpc.Dial(target, 1)
	defer raw.Close()
	resp, err := raw.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/stale", Data: []byte("REVOKED"), Epoch: 1})
	if !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("stale-epoch probe: want ErrStaleEpoch, got %v", err)
	}
	if resp != nil {
		resp.Release()
	}
	if _, err := r.Store.Stat("/stale"); err == nil {
		t.Fatal("a fenced write left bytes on the PFS")
	}
	if _, err := raw.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/stale", Data: []byte("CURRENT"), Epoch: r.Bus.Current().Version}); err != nil {
		t.Fatalf("current-epoch write after the probe: %v", err)
	}
	r.Expect(t,
		Exactly("epoch_fence_rejections_total", rejected+1),
		AtLeast("journal_appends_total", 1),
		AtLeast("journal_replay_records_total", 1))
	t.Logf("seed %d: %v %v", seed, rep.Events, dark.Events)
}
