package scenario

// Gray failure (`make grayfail`): a 12-ION stack with fail-slow detection,
// quarantine and hedged requests on; one allocated I/O node — the seed
// picks it — ramps to ~50× latency mid-workload while answering every
// probe and every call. Detection, quarantine and re-steer land inside the
// SLO budget; a hedge wins at least once; once steered, the write p99 no
// longer pays the fault; when it lifts, hysteresis restores the node. The
// apply-count oracle is the exactly-once check: every segment here is
// acknowledged on its one attempt, so a hedged or retried write that
// applied twice fails it.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/nodestate"
)

func TestGrayFailureDetectQuarantineHedgeRecover(t *testing.T) {
	const (
		grayDelay = 40 * time.Millisecond // ~50×: healthy loopback ops sit well under 1ms
		sloBudget = 8 * time.Second       // detection + re-steer must land inside this
	)
	seed := Seed(t, "grayfail", 1)
	r, _ := start(t, "grayfail")
	app := &App{ID: "gray", Label: "IOR-MPI", Writers: 1, Segments: 1 << 14, Size: 4096} // one chunk a segment
	r.Open(app)
	if len(app.Alloc) == 0 {
		t.Fatal("no allocation")
	}
	victim := app.Alloc[rand.New(rand.NewSource(seed)).Intn(len(app.Alloc))]
	c, buf, segs := app.Clients[0], make([]byte, app.Size), 0
	put := func() time.Duration {
		took, err := app.Put(0, segs, buf)
		if err != nil {
			t.Fatalf("write segment %d: %v", segs, err)
		}
		segs++
		return took
	}

	// Healthy baseline: fills the shared latency sketch with peer-relative
	// evidence (probe round-trips flow too).
	for i := 0; i < 48; i++ {
		put()
	}

	// The gray failure: the victim ramps toward ~50× on both directions
	// while it keeps answering. The workload never stops, and stripe reads
	// give the direct-PFS hedge races to win.
	r.net(victim).Set(faultnet.Plan{Kind: faultnet.Slow, Delay: grayDelay, Ramp: 500 * time.Millisecond, Seed: seed})
	faultStart, stripe := time.Now(), make([]byte, 8*app.Size)
	for slices.Contains(c.IONs(), victim) || len(c.IONs()) == 0 {
		if time.Since(faultStart) > sloBudget {
			t.Fatalf("SLO breach: client still mapped to the gray ION after %v (degraded=%v quarantined=%d)",
				sloBudget, r.Arbiter.NodesIn(nodestate.Degraded), r.Metric("arbiter_quarantine_marked_total"))
		}
		put()
		if segs%4 == 0 {
			if n, err := c.Read(app.Path(), 0, stripe); err != nil || n != len(stripe) {
				t.Fatalf("read during gray failure: n=%d err=%v", n, err)
			}
		}
	}
	t.Logf("gray ION detected, quarantined and steered around in %v (seed %d)", time.Since(faultStart), seed)
	if m := r.Bus.Current().For("gray"); slices.Contains(m, victim) || len(m) == 0 {
		t.Fatalf("published mapping still hands out the gray ION: %v", m)
	}
	r.Expect(t,
		AtLeast("health_degraded_transitions_total", 1),
		AtLeast("arbiter_quarantine_marked_total", 1),
		Exactly("arbiter_quarantine_ions", 1))
	if degraded := r.Arbiter.NodesIn(nodestate.Degraded); !slices.Equal(degraded, []string{victim}) {
		t.Fatalf("degraded nodes = %v, want only the gray ION %s", degraded, victim)
	}

	// Bounded p99 once re-steered: the tail no longer pays the gray latency.
	post := make([]time.Duration, 200)
	for i := range post {
		post[i] = put()
	}
	slices.Sort(post)
	if p99 := post[len(post)*99/100]; p99 >= grayDelay {
		t.Fatalf("post-quarantine write p99 = %v, want < %v (the tail still pays the gray latency)", p99, grayDelay)
	}
	label := fmt.Sprintf("{app=%q}", "gray")
	r.Expect(t, AtLeast("fwd_hedge_launched_total"+label, 1), AtLeast("fwd_hedge_wins_total"+label, 1))

	// Recovery: with the fault lifted, clean sweeps plus hysteresis return
	// the node to the allocatable pool.
	r.net(victim).Set(faultnet.Plan{})
	Await(t, 30*time.Second, func() bool {
		return r.Metric("arbiter_quarantine_ions") == 0 && len(r.Arbiter.NodesIn(nodestate.Degraded)) == 0
	},
		"the gray ION was never restored (restored=%v)", lazy(func() any { return r.Metric("arbiter_quarantine_restored_total") }))
	r.Expect(t, AtLeast("health_degraded_recovered_total", 1), AtLeast("arbiter_quarantine_restored_total", 1))
	r.Check(t, app)
}
