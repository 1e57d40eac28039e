package ion

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/pfs"
	"repro/internal/rpc"
)

// TestRestartSameAddress: a Closed daemon comes back on the address it
// last served, with the same identity and monotonic counters.
func TestRestartSameAddress(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d := New(Config{ID: "ion0"}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.Dial(addr, 2)
	defer cli.Close()
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/r", Data: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	bound, err := d.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if bound != addr {
		t.Fatalf("restart moved the daemon: %s -> %s", addr, bound)
	}
	// The old client pool redials transparently (stale-conn retry).
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/r", Offset: 3, Data: []byte("two")})
	if err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if resp.Size != 3 {
		t.Fatalf("write size = %d", resp.Size)
	}
	buf := make([]byte, 6)
	if _, err := store.Read("/r", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("onetwo")) {
		t.Fatalf("content %q", buf)
	}
	s := d.Stats()
	if s.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", s.Restarts)
	}
	if s.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (counters must be monotonic across restart)", s.Writes)
	}
}

// TestRestartPreservesDedupWindow: the retries a crash strands are exactly
// the ones the dedup window must absorb — a stamped write applied before
// the crash replays (not re-executes) when retried against the restarted
// daemon.
func TestRestartPreservesDedupWindow(t *testing.T) {
	backend := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d := New(Config{ID: "ion0", DedupWindow: 16}, backend)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	msg := &rpc.Message{Op: rpc.OpWrite, Path: "/d", Data: []byte("payload"), ClientID: "fwd-R", Seq: 11}
	cli := rpc.Dial(addr, 1)
	defer cli.Close()
	if _, err := cli.Call(msg); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // crash: the response may never have reached the app
		t.Fatal(err)
	}
	if _, err := d.Restart(nil); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := cli.Call(msg) // the stranded retry
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Replayed {
		t.Fatal("post-restart retry should replay from the surviving dedup window")
	}
	if got := backend.applies.Load(); got != 1 {
		t.Fatalf("backend applied %d times, want 1", got)
	}
}

// TestRestartGuards: restarting a running daemon is refused; restarting
// before the first Start is refused.
func TestRestartGuards(t *testing.T) {
	d := New(Config{ID: "ion0"}, pfs.NewStore(pfs.Config{}))
	if _, err := d.Restart(nil); err == nil {
		t.Fatal("restart before Start should fail")
	}
	if _, err := d.Start(""); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Restart(nil); err == nil {
		t.Fatal("restart of a running daemon should fail")
	}
}

// TestRestartCycleRepeats: several close/restart cycles in a row keep
// working — the torture harness leans on this.
func TestRestartCycleRepeats(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d := New(Config{ID: "ion0"}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", i, err)
		}
		bound, err := d.Restart(nil)
		if err != nil {
			t.Fatalf("cycle %d restart: %v", i, err)
		}
		if bound != addr {
			t.Fatalf("cycle %d: address drifted %s -> %s", i, addr, bound)
		}
		cli := rpc.Dial(addr, 1)
		if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing}); err != nil {
			t.Fatalf("cycle %d ping: %v", i, err)
		}
		cli.Close()
	}
	d.Close()
	if got := d.Stats().Restarts; got != 3 {
		t.Fatalf("Restarts = %d, want 3", got)
	}
}

// countingListener counts the connections accepted through it.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestRestartWrapsTheReboundListener: Restart hands the listener it rebound
// to wrap exactly once per successful bind — never for a refused restart —
// serves through what wrap returned, on the original address, and counts
// the restart like an unwrapped one.
func TestRestartWrapsTheReboundListener(t *testing.T) {
	d := New(Config{ID: "ion0"}, pfs.NewStore(pfs.Config{}))
	var wraps int
	var accepts atomic.Int64
	wrap := func(ln net.Listener) net.Listener {
		wraps++
		return countingListener{ln, &accepts}
	}
	if _, err := d.Restart(wrap); err == nil || wraps != 0 {
		t.Fatalf("restart before Start: err=%v wraps=%d, want a refusal and no wrap", err, wraps)
	}
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Restart(wrap); err == nil || wraps != 0 {
		t.Fatalf("restart of a running daemon: err=%v wraps=%d, want a refusal and no wrap", err, wraps)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		d.Close()
		bound, err := d.Restart(wrap)
		if err != nil || bound != addr {
			t.Fatalf("cycle %d: Restart(wrap) = %q, %v; want %q", cycle, bound, err, addr)
		}
		if wraps != cycle {
			t.Fatalf("cycle %d: wrap called %d times", cycle, wraps)
		}
		cli := rpc.Dial(addr, 1)
		if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing}); err != nil {
			t.Fatalf("cycle %d ping: %v", cycle, err)
		}
		cli.Close()
		if got := accepts.Load(); got != int64(cycle) {
			t.Fatalf("cycle %d: %d conns came through the wrapper, want %d", cycle, got, cycle)
		}
	}
	d.Close()
	if got := d.Stats().Restarts; got != 2 {
		t.Fatalf("ion_restarts_total = %d, want 2", got)
	}
}
