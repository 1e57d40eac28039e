package livestack

// Chaos tests: kill or wedge an I/O-node daemon mid-workload and assert
// the acceptance properties of the failure-tolerance stack — no write is
// ever lost, failover to the direct PFS path is prompt, the health prober
// marks the node down, the arbiter publishes a mapping that excludes it,
// and every transition is observable as a counter.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/faultnet"
	"repro/internal/nodestate"
	"repro/internal/rpc"
)

// chaosRPC makes transport failures fast and deterministic: with
// MaxRetries=1 a single failed Call is two consecutive breaker failures,
// so BreakerThreshold=2 opens the breaker on the first failed call.
func chaosRPC() rpc.Options {
	return rpc.Options{
		CallTimeout:      500 * time.Millisecond,
		MaxRetries:       1,
		RetryBackoff:     time.Millisecond,
		RetryBackoffMax:  5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second, // dead node stays failed over for the whole test
	}
}

// pat is the deterministic file content: one byte per offset.
func pat(off int64) byte { return byte(off % 251) }

func fill(off int64, p []byte) {
	for i := range p {
		p[i] = pat(off + int64(i))
	}
}

// nodeIn reports whether the arbiter has addr in any condition of mask.
func nodeIn(arb *arbiter.Arbiter, addr string, mask nodestate.State) bool {
	st, _ := arb.StateOf(addr)
	return st.Has(mask)
}

func contains(list []string, x string) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// TestChaosKillDaemonMidWorkload is the acceptance scenario: a 12-ION
// stack, one daemon killed in the middle of a write stream.
func TestChaosKillDaemonMidWorkload(t *testing.T) {
	st, err := Start(Config{
		IONs:      12,
		Scheduler: "FIFO",
		ChunkSize: 4096,
		RPC:       chaosRPC(),

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

	const (
		segSize  = 16 * 1024 // 4 chunks per write
		segments = 40
		killAt   = 12
		total    = segSize * segments
	)
	dead := allocated[0]
	seg := make([]byte, segSize)

	if err := client.Create("/chaos"); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < segments; s++ {
		if s == killAt {
			for i, a := range st.Addrs {
				if a == dead {
					st.Daemons[i].Close()
				}
			}
		}
		off := int64(s) * segSize
		fill(off, seg)
		n, err := client.Write("/chaos", off, seg)
		if err != nil {
			t.Fatalf("write segment %d (dead=%v): %v", s, s >= killAt, err)
		}
		if n != segSize {
			t.Fatalf("segment %d: wrote %d of %d bytes", s, n, segSize)
		}
	}

	// Bounded recovery: the health prober marks the node down, the arbiter
	// re-arbitrates, and the new mapping reaches the client.
	deadline := time.Now().Add(5 * time.Second)
	for contains(client.IONs(), dead) || len(client.IONs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never saw a mapping excluding the dead ION (has %v)", client.IONs())
		}
		time.Sleep(time.Millisecond)
	}
	if m := st.Bus.Current().For("ior1"); contains(m, dead) || len(m) == 0 {
		t.Fatalf("published mapping still includes the dead ION: %v", m)
	}

	// Byte conservation: every byte written exactly once, readable both
	// through the (remapped) forwarding client and directly from the PFS.
	got := make([]byte, total)
	if n, err := client.Read("/chaos", 0, got); err != nil || n != total {
		t.Fatalf("read back through client: n=%d err=%v", n, err)
	}
	for i := range got {
		if got[i] != pat(int64(i)) {
			t.Fatalf("byte %d corrupted: got %d want %d", i, got[i], pat(int64(i)))
		}
	}
	if fi, err := client.Stat("/chaos"); err != nil || fi.Size != total {
		t.Fatalf("Stat: size=%d err=%v, want %d", fi.Size, err, total)
	}
	direct := make([]byte, total)
	if n, err := st.Store.Read("/chaos", 0, direct); err != nil || n != total {
		t.Fatalf("read back from store: n=%d err=%v", n, err)
	}

	// Every transition is observable.
	reg := st.Telemetry
	appLabel := fmt.Sprintf("{app=%q}", "ior1")
	if v := reg.Counter("fwd_failover_ops_total" + appLabel).Value(); v == 0 {
		t.Fatal("no failover recorded despite a mid-workload ION death")
	}
	if v := reg.Counter("rpc_breaker_open_total").Value(); v < 1 {
		t.Fatalf("rpc_breaker_open_total = %d, want ≥1", v)
	}
	if v := reg.Counter("health_transitions_down_total").Value(); v != 1 {
		t.Fatalf("health_transitions_down_total = %d, want 1", v)
	}
	if v := reg.Counter("arbiter_marked_down_total").Value(); v != 1 {
		t.Fatalf("arbiter_marked_down_total = %d, want 1", v)
	}
	if v := reg.Gauge("arbiter_ions_live").Value(); v != 11 {
		t.Fatalf("arbiter_ions_live = %d, want 11", v)
	}
	if v := reg.Counter("fwd_bytes_out_total" + appLabel).Value(); v != total {
		t.Fatalf("fwd_bytes_out_total = %d, want %d (no write lost, none double-counted)", v, total)
	}
}

// TestChaosHangFailoverAndBreakerRecovery wedges a daemon with an injected
// network hang (rather than killing it): per-call deadlines convert the
// hang into failover, the breaker opens, and once the fault lifts the
// breaker's half-open probe restores forwarding.
func TestChaosHangFailoverAndBreakerRecovery(t *testing.T) {
	inj := faultnet.NewInjector(faultnet.Plan{})
	opts := rpc.Options{
		CallTimeout:      100 * time.Millisecond,
		MaxRetries:       1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
	}
	st, err := Start(Config{
		IONs:         1,
		Scheduler:    "FIFO",
		ChunkSize:    4096,
		RPC:          opts,
		WrapListener: func(_ int, ln net.Listener) net.Listener { return faultnet.WrapListener(ln, inj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	client, err := st.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "app")); err != nil {
		t.Fatal(err)
	}
	// Everything routes through the single (wrapped) daemon.
	if err := WaitForAllocation(client, 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	if err := client.Create("/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	fill(0, buf)
	if _, err := client.Write("/f", 0, buf); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	reg := st.Telemetry
	inj.Set(faultnet.Plan{Kind: faultnet.Hang})
	fill(512, buf)
	if _, err := client.Write("/f", 512, buf); err != nil {
		t.Fatalf("write during hang must fail over: %v", err)
	}
	if v := reg.Counter("rpc_deadline_expired_total").Value(); v == 0 {
		t.Fatal("hang was not caught by a per-call deadline")
	}
	if v := reg.Counter("rpc_breaker_open_total").Value(); v < 1 {
		t.Fatalf("rpc_breaker_open_total = %d, want ≥1", v)
	}
	failoversDuringHang := reg.Counter(`fwd_failover_ops_total{app="app"}`).Value()
	if failoversDuringHang == 0 {
		t.Fatal("no failover during the hang")
	}

	// Lift the fault; after the cooldown the next call is the half-open
	// probe and must close the breaker and resume forwarding.
	inj.Set(faultnet.Plan{})
	time.Sleep(opts.BreakerCooldown + 50*time.Millisecond)
	fill(1024, buf)
	if _, err := client.Write("/f", 1024, buf); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if v := reg.Counter("rpc_breaker_close_total").Value(); v < 1 {
		t.Fatalf("rpc_breaker_close_total = %d, want ≥1 (breaker never recovered)", v)
	}
	if v := reg.Counter(`fwd_failover_ops_total{app="app"}`).Value(); v != failoversDuringHang {
		t.Fatalf("writes still failing over after recovery: %d → %d", failoversDuringHang, v)
	}

	// Byte conservation across healthy → hung → recovered phases.
	got := make([]byte, 1536)
	if n, err := client.Read("/f", 0, got); err != nil || n != len(got) {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	for i := range got {
		if got[i] != pat(int64(i)) {
			t.Fatalf("byte %d corrupted after chaos: got %d want %d", i, got[i], pat(int64(i)))
		}
	}
}
