package livestack

// Restart/rejoin tests: the crash→detect→re-arbitrate loop PR 3 opened is
// closed here — a killed daemon warm-restarts on its old address, the
// health prober observes it rise, MarkUp re-admits it, and traffic flows
// through it again. Run with wire checksums and the dedup window on, so
// the rejoin path is exercised with the full integrity stack.

import (
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/rpc"
)

func TestRestartRejoin(t *testing.T) {
	opts := chaosRPC()
	opts.BreakerCooldown = 50 * time.Millisecond // let the breaker probe the revived node
	st, err := Start(Config{
		IONs:      12,
		Scheduler: "FIFO",
		ChunkSize: 4096,
		RPC:       opts,

		WireChecksum: true,
		DedupWindow:  128,

		HealthInterval:      20 * time.Millisecond,
		HealthTimeout:       250 * time.Millisecond,
		HealthFailThreshold: 3,
		HealthRiseThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	client, err := st.NewClient("ior1")
	if err != nil {
		t.Fatal(err)
	}
	allocated, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(allocated) == 0 {
		t.Fatal("no allocation")
	}
	if err := waitForSomeAllocation(client, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Write an initial stream, then kill one allocated daemon.
	const segSize = 16 * 1024
	seg := make([]byte, segSize)
	if err := client.Create("/rejoin"); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		off := int64(s) * segSize
		fill(off, seg)
		if _, err := client.Write("/rejoin", off, seg); err != nil {
			t.Fatalf("write segment %d: %v", s, err)
		}
	}
	victim := -1
	for i, a := range st.Addrs {
		if a == allocated[0] {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("allocated address %s not in stack", allocated[0])
	}
	st.Daemons[victim].Close()

	// Detection: prober marks it down, arbiter shrinks the live pool.
	reg := st.Telemetry
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("arbiter_ions_live").Value() != 11 {
		if time.Now().After(deadline) {
			t.Fatalf("arbiter never marked the killed ION down (live=%d)", reg.Gauge("arbiter_ions_live").Value())
		}
		time.Sleep(time.Millisecond)
	}

	// Rejoin: warm restart on the same address; the prober must observe
	// the rise and its Rise event must restore the pool.
	if err := st.RestartION(victim); err != nil {
		t.Fatalf("RestartION: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for reg.Gauge("arbiter_ions_live").Value() != 12 {
		if time.Now().After(deadline) {
			t.Fatalf("arbiter never re-admitted the restarted ION (live=%d)", reg.Gauge("arbiter_ions_live").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if hs, _ := st.Health.StateOf(st.Addrs[victim]); hs.Has(nodestate.Down) {
		t.Fatal("prober still reports the restarted ION down")
	}
	if v := reg.Counter("health_transitions_up_total").Value(); v != 1 {
		t.Fatalf("health_transitions_up_total = %d, want 1", v)
	}
	if v := reg.Counter("arbiter_marked_up_total").Value(); v != 1 {
		t.Fatalf("arbiter_marked_up_total = %d, want 1", v)
	}

	// The restarted daemon serves on its old address again: a direct ping
	// proves it, and the per-node restart counter records the cycle.
	cli := rpc.Dial(st.Addrs[victim], 1)
	defer cli.Close()
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing}); err != nil {
		t.Fatalf("ping restarted ION: %v", err)
	}
	if got := st.Daemons[victim].Stats().Restarts; got != 1 {
		t.Fatalf("daemon Restarts = %d, want 1", got)
	}

	// Traffic keeps flowing end to end after the rejoin, checksummed and
	// stamped; all content remains intact.
	const total = 16 * segSize
	for s := 8; s < 16; s++ {
		off := int64(s) * segSize
		fill(off, seg)
		if _, err := client.Write("/rejoin", off, seg); err != nil {
			t.Fatalf("write segment %d after rejoin: %v", s, err)
		}
	}
	got := make([]byte, total)
	if n, err := client.Read("/rejoin", 0, got); err != nil || n != total {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	for i := range got {
		if got[i] != pat(int64(i)) {
			t.Fatalf("byte %d corrupted after restart: got %d want %d", i, got[i], pat(int64(i)))
		}
	}
	// The integrity path was actually on: no checksum errors counted (the
	// wire is clean), and the restart is visible stack-wide.
	if v := reg.Counter("rpc_checksum_errors_total").Value(); v != 0 {
		t.Fatalf("rpc_checksum_errors_total = %d on a clean wire", v)
	}
}
