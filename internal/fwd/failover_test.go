package fwd

// Failover tests: when an allocated I/O node becomes unreachable, the
// client degrades that node's chunks to the direct PFS path instead of
// surfacing transport errors to the application.

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// failoverOptions makes transport failures fast and deterministic: one
// re-send, a gate that opens after the first failed call (its 2 attempts
// are 2 consecutive failures), and a cooldown long enough that the gate
// stays open for the remainder of the test.
func failoverOptions() rpc.Options {
	return rpc.Options{
		CallTimeout:      500 * time.Millisecond,
		MaxRetries:       1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	}
}

func newFailoverClient(t *testing.T, direct pfs.FileSystem, chunk int64) *Client {
	t.Helper()
	c, err := NewClient(Config{
		AppID:     "app",
		Direct:    direct,
		ChunkSize: chunk,
		RPC:       failoverOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// refusingListener closes the first n connections it accepts and passes
// the rest on: a node that comes back after a blip.
type refusingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *refusingListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil || l.n.Add(-1) < 0 {
			return conn, err
		}
		conn.Close()
	}
}

// TestRetriesWithBackoffRecoverFromTransientFailures: a node that drops
// its first MaxRetries connections is recovered by callION's transport
// re-sends, each after its backoff, so the op is served forwarded instead
// of failing over; each dropped attempt was one failure at the gate, and
// the answer resets the streak before it reaches the threshold.
func TestRetriesWithBackoffRecoverFromTransientFailures(t *testing.T) {
	const maxRetries = 2
	fake := &outcomeION{}
	fake.mode.Store("ok")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &refusingListener{Listener: ln}
	flaky.n.Store(maxRetries)
	srv := rpc.NewServer(fake.handle)
	addr, err := srv.ListenOn(flaky)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := telemetry.New()
	c, err := NewClient(Config{AppID: "app", Direct: pfs.NewStore(pfs.Config{}), Telemetry: reg,
		RPC: rpc.Options{CallTimeout: 2 * time.Second, MaxRetries: maxRetries, BreakerThreshold: maxRetries + 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetIONs([]string{addr})

	began := time.Now()
	if err := c.Create("/flaky"); err != nil {
		t.Fatal(err)
	}
	// The two backoffs wait at least 1 ms and 2 ms: half of 2 ms, doubled.
	if took := time.Since(began); took < 3*time.Millisecond {
		t.Errorf("the op took %v; two re-sends after their backoffs take at least 3ms", took)
	}
	if st := c.Stats(); st.ForwardedOps != 1 || st.FailoverOps != 0 || st.DirectOps != 0 {
		t.Errorf("stats %+v, want the op forwarded once and never failed over", st)
	}
	if got := fake.wire.Load(); got != 1 {
		t.Errorf("%d requests reached the node, want 1", got)
	}
	if got := reg.Counter("rpc_retries_total").Value(); got != maxRetries {
		t.Errorf("rpc_retries_total = %d, want %d", got, maxRetries)
	}
	g := c.gateFor(addr)
	g.mu.Lock()
	fails := g.fails
	g.mu.Unlock()
	if fails != 0 || g.pol.opens.Value() != 0 {
		t.Errorf("gate: transport streak %d, opens %d; want 0, 0 after the answer", fails, g.pol.opens.Value())
	}
}

func TestWriteFailsOverToDirectPFS(t *testing.T) {
	store, addrs, daemons := testStack(t, 1)
	c := newFailoverClient(t, store, 64)
	c.SetIONs(addrs)

	if err := c.Create("/f"); err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{1}, 200)
	if _, err := c.Write("/f", 0, first); err != nil {
		t.Fatalf("forwarded write: %v", err)
	}

	daemons[0].Close() // the only I/O node dies mid-run

	second := bytes.Repeat([]byte{2}, 200)
	n, err := c.Write("/f", 200, second)
	if err != nil {
		t.Fatalf("write after ION death must fail over, got %v", err)
	}
	if n != len(second) {
		t.Fatalf("failover write wrote %d of %d bytes", n, len(second))
	}

	// Byte conservation: both halves are in the backing store.
	got := make([]byte, 400)
	if _, err := store.Read("/f", 0, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got[:200], first) || !bytes.Equal(got[200:], second) {
		t.Fatal("failover lost or corrupted bytes")
	}

	s := c.Stats()
	if s.FailoverOps == 0 {
		t.Fatal("fwd_failover_ops_total never incremented")
	}
	if s.BytesOut != 400 {
		t.Fatalf("BytesOut = %d, want 400 (failover must not re-count)", s.BytesOut)
	}
}

func TestReadFailsOverToDirectPFS(t *testing.T) {
	store, addrs, daemons := testStack(t, 1)
	c := newFailoverClient(t, store, 64)
	c.SetIONs(addrs)

	want := bytes.Repeat([]byte{7}, 300)
	if err := store.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("/f", 0, want); err != nil {
		t.Fatal(err)
	}

	daemons[0].Close()

	got := make([]byte, 300)
	n, err := c.Read("/f", 0, got)
	if err != nil {
		t.Fatalf("read after ION death must fail over, got %v", err)
	}
	if n != 300 || !bytes.Equal(got, want) {
		t.Fatalf("failover read returned %d bytes, content match=%v", n, bytes.Equal(got, want))
	}
	if s := c.Stats(); s.FailoverOps == 0 || s.BytesIn != 300 {
		t.Fatalf("stats after read failover: %+v", s)
	}

	// Short reads keep their semantics on the failover path too.
	long := make([]byte, 400)
	n, err = c.Read("/f", 0, long)
	if n != 300 || !errors.Is(err, pfs.ErrShortRead) {
		t.Fatalf("failover short read: n=%d err=%v", n, err)
	}
}

func TestMetadataFailsOverToDirectPFS(t *testing.T) {
	store, addrs, daemons := testStack(t, 1)
	c := newFailoverClient(t, store, 64)
	c.SetIONs(addrs)
	daemons[0].Close()

	if err := c.Create("/m"); err != nil {
		t.Fatalf("Create failover: %v", err)
	}
	if _, err := c.Write("/m", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	fi, err := c.Stat("/m")
	if err != nil {
		t.Fatalf("Stat failover: %v", err)
	}
	if fi.Size != 3 {
		t.Fatalf("Stat size = %d, want 3", fi.Size)
	}
	if err := c.Fsync("/m"); err != nil {
		t.Fatalf("Fsync failover: %v", err)
	}
	if err := c.Remove("/m"); err != nil {
		t.Fatalf("Remove failover: %v", err)
	}
	if _, err := store.Stat("/m"); !errors.Is(err, pfs.ErrNotExist) {
		t.Fatal("Remove failover did not reach the store")
	}
	if s := c.Stats(); s.FailoverOps < 4 {
		t.Fatalf("FailoverOps = %d, want ≥4", s.FailoverOps)
	}
}

// TestFailoverRejoinsForwardingOnRemap: after degrading to direct, a remap
// that excludes the dead node routes new requests through live I/O nodes
// again — the failover is per-node, not a one-way door out of forwarding.
func TestFailoverRejoinsForwardingOnRemap(t *testing.T) {
	store, addrs, daemons := testStack(t, 2)
	c := newFailoverClient(t, store, 64)
	c.SetIONs(addrs[:1]) // all chunks route to daemon 0

	if err := c.Create("/f"); err != nil {
		t.Fatal(err)
	}
	daemons[0].Close()
	if _, err := c.Write("/f", 0, bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatalf("failover write: %v", err)
	}
	failoversBefore := c.Stats().FailoverOps
	if failoversBefore == 0 {
		t.Fatal("expected failover before remap")
	}

	c.SetIONs(addrs[1:]) // re-arbitration excludes the dead node
	if _, err := c.Write("/f", 100, bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatalf("forwarded write after remap: %v", err)
	}
	if got := c.Stats().FailoverOps; got != failoversBefore {
		t.Fatalf("remapped writes still failing over: %d → %d", failoversBefore, got)
	}
	got := make([]byte, 200)
	if _, err := store.Read("/f", 0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(1)
		if i >= 100 {
			want = 2
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
}

// TestApplicationErrorsAreNotFailedOver: errors the server *returned* (the
// node is alive and answered) must surface as-is — falling back to the PFS
// would mask real application errors and double-apply semantics.
func TestApplicationErrorsAreNotFailedOver(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c := newFailoverClient(t, store, 64)
	c.SetIONs(addrs)

	if _, err := c.Stat("/missing"); !errors.Is(err, pfs.ErrNotExist) {
		t.Fatalf("Stat of missing file: want ErrNotExist, got %v", err)
	}
	if s := c.Stats(); s.FailoverOps != 0 {
		t.Fatalf("application error triggered failover: %+v", s)
	}
}
