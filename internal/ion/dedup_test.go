package ion

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/rpc"
)

// countingBackend counts backend write applications, so exactly-once tests
// can observe double-apply directly at the storage boundary: WriteAs and
// the staged Install both count (the store's own Install would not).
type countingBackend struct {
	*pfs.Store
	applies atomic.Int64
}

func (b *countingBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	b.applies.Add(1)
	return b.Store.WriteAs(writer, path, off, p)
}

func (b *countingBackend) Install(writer string, st *pfs.Stage) (int, error) {
	b.applies.Add(1)
	return b.Store.Install(writer, st)
}

// sendStamped writes one stamped OpWrite frame on a raw conn — no rpc.Client,
// so the test controls exactly when the connection dies.
func sendStamped(t *testing.T, addr string, read bool) *rpc.Message {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := &rpc.Message{
		Op: rpc.OpWrite, Path: "/dup", Offset: 0, Data: []byte("exactly-once"),
		ClientID: "fwd-A", Seq: 1,
	}
	if err := rpc.WriteMessage(conn, msg); err != nil {
		t.Fatal(err)
	}
	if !read {
		return nil // cut the connection with the response unread
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := rpc.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRetryDuplicateExactlyOnce is the headline regression: the connection
// dies after the server applies a write but before the client reads the
// response; the transport retry resends the same stamped frame. With a
// dedup window the daemon replays the cached outcome — the backend applies
// the bytes exactly once.
func TestRetryDuplicateExactlyOnce(t *testing.T) {
	backend := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d := New(Config{ID: "ion0", DedupWindow: 64}, backend)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// First attempt: frame lands, server applies, response is never read —
	// from the client's side this is a broken exchange it must retry.
	sendStamped(t, addr, false)
	deadline := time.Now().Add(5 * time.Second)
	for backend.applies.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never applied")
		}
		time.Sleep(time.Millisecond)
	}

	// The retry: identical frame on a fresh connection.
	resp := sendStamped(t, addr, true)
	if resp.Err != "" {
		t.Fatalf("retry failed: %s", resp.Err)
	}
	if !resp.Replayed {
		t.Fatal("retry response should be marked Replayed")
	}
	if resp.Size != int64(len("exactly-once")) {
		t.Fatalf("replayed size = %d", resp.Size)
	}
	if got := backend.applies.Load(); got != 1 {
		t.Fatalf("backend applied %d times, want exactly 1", got)
	}
	s := d.Stats()
	if s.Writes != 1 || s.DedupReplays != 1 {
		t.Fatalf("stats: writes=%d replays=%d, want 1/1", s.Writes, s.DedupReplays)
	}
	// Content intact.
	buf := make([]byte, len("exactly-once"))
	if _, err := backend.Read("/dup", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("exactly-once")) {
		t.Fatalf("content %q", buf)
	}
}

// TestRetryDuplicateWithoutDedupDoubleApplies pins the pre-integrity
// behavior the tentpole fixes: with the window disabled (the default), the
// same retry re-executes and the backend applies twice. If this test ever
// fails, deduplication stopped being opt-in.
func TestRetryDuplicateWithoutDedupDoubleApplies(t *testing.T) {
	backend := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d := New(Config{ID: "ion0"}, backend) // DedupWindow 0: off
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sendStamped(t, addr, false)
	deadline := time.Now().Add(5 * time.Second)
	for backend.applies.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never applied")
		}
		time.Sleep(time.Millisecond)
	}
	resp := sendStamped(t, addr, true)
	if resp.Replayed {
		t.Fatal("no dedup window, yet response claims replay")
	}
	if got := backend.applies.Load(); got != 2 {
		t.Fatalf("backend applied %d times, want 2 (double-apply without dedup)", got)
	}
}

// TestDedupConcurrentDuplicates: duplicates racing the original execution
// coalesce onto it — one backend apply, every caller sees the same outcome.
func TestDedupConcurrentDuplicates(t *testing.T) {
	backend := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d := New(Config{ID: "ion0", DedupWindow: 8}, backend)
	if _, err := d.Start(""); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const dups = 8
	var wg sync.WaitGroup
	resps := make([]*rpc.Message, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = d.handleOp(&rpc.Message{
				Op: rpc.OpWrite, Path: "/c", Offset: 0, Data: []byte("dup"),
				ClientID: "fwd-B", Seq: 7,
			})
		}(i)
	}
	wg.Wait()
	if got := backend.applies.Load(); got != 1 {
		t.Fatalf("backend applied %d times, want 1", got)
	}
	replays := 0
	for i, r := range resps {
		if r.Err != "" {
			t.Fatalf("dup %d: %s", i, r.Err)
		}
		if r.Size != 3 {
			t.Fatalf("dup %d: size %d", i, r.Size)
		}
		if r.Replayed {
			replays++
		}
	}
	if replays != dups-1 {
		t.Fatalf("replays = %d, want %d", replays, dups-1)
	}
}

// TestDedupWindowEviction: the window is bounded FIFO per client — once a
// seq falls out, a late retry re-executes (the documented limit).
func TestDedupWindowEviction(t *testing.T) {
	backend := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d := New(Config{ID: "ion0", DedupWindow: 2}, backend)
	if _, err := d.Start(""); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	write := func(seq uint64) *rpc.Message {
		return d.handleOp(&rpc.Message{
			Op: rpc.OpWrite, Path: "/w", Offset: int64(seq) * 4, Data: []byte("abcd"),
			ClientID: "fwd-C", Seq: seq,
		})
	}
	write(1)
	write(2)
	write(3) // evicts seq 1
	if d.dedup.size() != 2 {
		t.Fatalf("window size %d, want 2", d.dedup.size())
	}
	// Seq 3 is still cached: replayed. Seq 1 fell out: re-executed.
	if r := write(3); !r.Replayed {
		t.Fatal("seq 3 should replay")
	}
	if r := write(1); r.Replayed {
		t.Fatal("evicted seq 1 should re-execute")
	}
	if got := backend.applies.Load(); got != 4 {
		t.Fatalf("applies = %d, want 4 (3 originals + 1 evicted retry)", got)
	}
}

// TestDedupBusyShedNotCached: a shed write never executed, so its seq must
// stay claimable — the retry after a busy must re-execute for real, and
// busy responses must never leak into the replay cache.
func TestDedupBusyShedNotCached(t *testing.T) {
	backend := &blockingBackend{
		Store:   pfs.NewStore(pfs.Config{}),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	d := New(Config{
		ID: "ion0", Dispatchers: 1, QueueCap: 1,
		RetryAfterHint: time.Millisecond, DedupWindow: 8,
	}, backend)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A Fatal below must not leave the dispatcher parked in the backend —
	// Close waits for in-flight handlers, so an unreleased backend would
	// hang the whole package.
	releaseBackend := sync.OnceFunc(func() { close(backend.release) })
	defer releaseBackend()
	cli := rpc.Dial(addr, 4)
	defer cli.Close()

	// Occupy the dispatcher, THEN fill the queue to its cap of 1. The
	// second write may only be sent once the first is inside the backend:
	// sent concurrently, it can reach the still-occupied queue first and
	// be shed (or merged into the head), and the queue never fills.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/b", Offset: 0, Data: []byte("abcd"), ClientID: "fwd-D", Seq: 100})
	}()
	<-backend.entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/b", Offset: 4, Data: []byte("abcd"), ClientID: "fwd-D", Seq: 101})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for d.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", d.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	// This stamped write sheds.
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/b", Offset: 64, Data: []byte("shed"), ClientID: "fwd-D", Seq: 999})
	if !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	// Response-hygiene audit (satellite): a busy response carries the busy
	// flag and hint plus identity echoes — and nothing else.
	if resp.Err != "" || resp.Replayed || resp.Size != 0 || len(resp.Data) != 0 {
		t.Fatalf("busy response leaks fields: %+v", resp)
	}
	if resp.ClientID != "fwd-D" || resp.Seq != 999 {
		t.Fatalf("busy response identity echo: %+v", resp)
	}

	// Drain the blocked writes, then retry the shed seq: it must execute.
	releaseBackend()
	wg.Wait()
	resp, err = cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/b", Offset: 64, Data: []byte("shed"), ClientID: "fwd-D", Seq: 999})
	if err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if resp.Replayed {
		t.Fatal("retry of a shed (never-executed) write must not be a replay")
	}
	if resp.Size != 4 {
		t.Fatalf("retry size = %d", resp.Size)
	}
}

// TestErrorResponseHygiene audits the pushFailed error path (closed queue):
// Trace echoed, Busy false, RetryAfter zero — no stale request fields.
func TestErrorResponseHygiene(t *testing.T) {
	d := New(Config{ID: "ion0", DedupWindow: 4}, &countingBackend{Store: pfs.NewStore(pfs.Config{})})
	// Never started: close the queue directly so Push fails terminally.
	d.queue.Close()
	resp := d.handleOp(&rpc.Message{
		Op: rpc.OpWrite, Path: "/p", Offset: 4, Data: []byte("x"),
		Trace: 42, ClientID: "fwd-E", Seq: 5,
		Busy: true, RetryAfter: time.Second, Replayed: true, // hostile stale flags
	})
	if resp.Err == "" {
		t.Fatal("closed queue should produce an error response")
	}
	if resp.Busy || resp.RetryAfter != 0 || resp.Replayed {
		t.Fatalf("error response leaks flags: %+v", resp)
	}
	if resp.Trace != 42 || resp.Path != "/p" {
		t.Fatalf("error response must echo identity: %+v", resp)
	}
	if len(resp.Data) != 0 || resp.Size != 0 {
		t.Fatalf("error response leaks payload: %+v", resp)
	}
	// The never-executed write must not be cached: the table is empty.
	if d.dedup.size() != 0 {
		t.Fatalf("dedup cached a never-executed write (size %d)", d.dedup.size())
	}
}
