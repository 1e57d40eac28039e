package livestack

import (
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/arbiter"
	"repro/internal/fwd"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

func startStack(t *testing.T, ions int) *Stack {
	t.Helper()
	st, err := Start(Config{IONs: ions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func appFor(t *testing.T, label, id string) policy.Application {
	t.Helper()
	spec, err := perfmodel.AppByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return policy.FromAppSpec(id, spec)
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("zero IONs should fail")
	}
	if _, err := Start(Config{IONs: 1, Scheduler: "bogus"}); err == nil {
		t.Fatal("unknown scheduler should fail")
	}
}

// TestEndToEndKernelThroughArbitration is the full §5.3 pipeline in one
// process: a job registers with the arbiter, the MCKP decision propagates
// over the mapping bus to the client, an application kernel runs through
// the forwarding stack, and the daemons show the traffic.
func TestEndToEndKernelThroughArbitration(t *testing.T) {
	st := startStack(t, 4)
	client, err := st.NewClient("ior1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("IOR-MPI with a 4-ION pool should get all 4, got %d", len(got))
	}
	if err := WaitForAllocation(client, 4, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	kernel := apps.IOR{Label: "IOR-T", Ranks: 8, BlockSize: 64 << 10, TransferSize: 16 << 10, ReadBack: true}
	rep, err := kernel.Run(client, "/jobs/ior1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriteBytes != 8*64<<10 {
		t.Fatalf("report: %+v", rep)
	}
	// Traffic flowed through daemons, not the direct path.
	var daemonBytes int64
	for _, d := range st.Daemons {
		daemonBytes += d.Stats().BytesIn
	}
	if daemonBytes != rep.WriteBytes {
		t.Fatalf("daemons saw %d bytes, kernel wrote %d", daemonBytes, rep.WriteBytes)
	}
	if st.Arbiter.LastSolveTime() <= 0 {
		t.Fatal("solver time missing")
	}

	if err := st.Arbiter.JobFinished("ior1"); err != nil {
		t.Fatal(err)
	}
	if have, ok := client.AwaitIONs(2*time.Second, func(ions []string) bool { return len(ions) == 0 }); !ok {
		t.Fatalf("client never observed its release (last mapping: %v)", have)
	}
}

// nodeIn reports whether the arbiter has addr in any condition of mask.
func nodeIn(arb *arbiter.Arbiter, addr string, mask nodestate.State) bool {
	st, _ := arb.StateOf(addr)
	return st.Has(mask)
}

// TestDynamicRearbitrationLive reproduces the §5.3 interaction live: HACC
// holds the whole pool, IOR-MPI arrives and takes most of it, HACC's
// client observes the shrink without disruption mid-run.
func TestDynamicRearbitrationLive(t *testing.T) {
	st := startStack(t, 8)
	hacc, err := st.NewClient("hacc1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "HACC", "hacc1")); err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(hacc, 8, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Start writing, remap mid-stream, keep writing.
	kernel := apps.HACC{Ranks: 4, Particles: 200, HeaderBytes: 128}
	if _, err := kernel.Run(hacc, "/phase1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	// HACC shrinks (MCKP gives IOR-MPI the lion's share).
	if have, ok := hacc.AwaitIONs(2*time.Second, func(ions []string) bool { return len(ions) < 8 }); !ok {
		t.Fatalf("HACC never shrank: %v", have)
	}
	if _, err := kernel.Run(hacc, "/phase2"); err != nil {
		t.Fatalf("kernel disrupted by remap: %v", err)
	}
	if hacc.Stats().RemapsApplied < 2 {
		t.Fatalf("remaps: %+v", hacc.Stats())
	}
}

func TestNoSharingAcrossClientsLive(t *testing.T) {
	st := startStack(t, 4)
	a, _ := st.NewClient("a")
	bclient, _ := st.NewClient("b")
	if _, err := st.Arbiter.JobStarted(appFor(t, "BT-D", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "POSIX-L", "b")); err != nil {
		t.Fatal(err)
	}
	// Each client waits for the final map's non-empty allocation, so the
	// check can neither pass on two empty ones nor compare a stale one.
	final := st.Bus.Current()
	seen := map[string]string{}
	for app, c := range map[string]*fwd.Client{"a": a, "b": bclient} {
		want := final.For(app)
		if len(want) == 0 {
			t.Fatalf("app %s got no I/O nodes: %v", app, final.IONs)
		}
		have, ok := c.AwaitIONs(2*time.Second, func(ions []string) bool { return slices.Equal(ions, want) })
		if !ok {
			t.Fatalf("app %s's client holds %v, want %v", app, have, want)
		}
		for _, addr := range have {
			if other, dup := seen[addr]; dup {
				t.Fatalf("ION %s shared between applications %s and %s", addr, other, app)
			}
			seen[addr] = app
		}
	}
}

func TestClientErrsAfterStackClose(t *testing.T) {
	st, err := Start(Config{IONs: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := st.NewClient("x")
	if err != nil {
		t.Fatal(err)
	}
	client.SetIONs(st.Addrs)
	st.Close()
	if _, err := client.Write("/f", 0, []byte("x")); err == nil {
		t.Fatal("write through closed stack should fail")
	}
}
