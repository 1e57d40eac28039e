package ion

// Bounded-admission tests for the daemon: queue-cap shedding with the
// retry-after hint on the wire, the ping load report the health prober
// reads, and the Close-vs-inflight-request shutdown race.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/rpc"
)

// blockingBackend parks every WriteAs and staged Install until released,
// so tests can hold the dispatcher busy and fill the queue
// deterministically.
type blockingBackend struct {
	*pfs.Store
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Store.WriteAs(writer, path, off, p)
}

func (b *blockingBackend) Install(writer string, st *pfs.Stage) (int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Store.Install(writer, st)
}

func TestQueueCapShedsWithRetryAfter(t *testing.T) {
	backend := &blockingBackend{
		Store:   pfs.NewStore(pfs.Config{}),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	d := New(Config{
		ID:             "ion0",
		Dispatchers:    1,
		QueueCap:       2,
		RetryAfterHint: 5 * time.Millisecond,
	}, backend)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli := rpc.Dial(addr, 8)
	defer cli.Close()

	// One write occupies the single dispatcher; two more fill the queue.
	var wg sync.WaitGroup
	write := func(off int64) {
		defer wg.Done()
		if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/q", Offset: off, Data: []byte("abcd")}); err != nil {
			t.Errorf("admitted write at %d failed: %v", off, err)
		}
	}
	wg.Add(1)
	go write(0)
	<-backend.entered // dispatcher holds write #0
	wg.Add(2)
	go write(4)
	go write(8)
	deadline := time.Now().Add(2 * time.Second)
	for d.QueueDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", d.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is at capacity: the next write must shed.
	_, err = cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/q", Offset: 12, Data: []byte("abcd")})
	if !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("write above queue cap: want ErrBusy, got %v", err)
	}
	if hint := err.(*rpc.Error).RetryAfter; hint != 5*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 5ms", hint)
	}
	if !d.QueueSaturated() {
		t.Fatal("daemon should report a saturated queue")
	}

	// Pings double as load reports — and keep answering under saturation.
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpPing})
	if err != nil {
		t.Fatalf("ping under saturation: %v", err)
	}
	if resp.Size != 2 {
		t.Fatalf("ping queue-depth report = %d, want 2", resp.Size)
	}
	if resp.Offset != 1 {
		t.Fatalf("ping reject report = %d, want 1", resp.Offset)
	}

	// A shed write was never ingested: only the three admitted writes may
	// appear in the counters once everything drains.
	close(backend.release)
	wg.Wait()
	s := d.Stats()
	if s.Writes != 3 || s.BytesIn != 12 {
		t.Fatalf("writes=%d bytesIn=%d, want 3 admitted writes / 12 bytes", s.Writes, s.BytesIn)
	}
	if s.QueueRejects != 1 {
		t.Fatalf("QueueRejects = %d, want 1", s.QueueRejects)
	}

	// Drained past the low watermark: admission has resumed.
	deadline = time.Now().Add(2 * time.Second)
	for d.QueueSaturated() {
		if time.Now().After(deadline) {
			t.Fatal("queue never desaturated after drain")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/q", Offset: 12, Data: []byte("abcd")}); err != nil {
		t.Fatalf("post-drain write should be admitted: %v", err)
	}
}

// TestCloseDuringInflightWrites is the shutdown-race regression at the
// daemon level: Close lands while writes are in flight. Every call must
// resolve — admitted writes complete (Close drains the queue), late ones
// fail with the typed closed error or a transport error — and nothing
// panics or wedges.
func TestCloseDuringInflightWrites(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d := New(Config{ID: "ion0", Dispatchers: 2}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.Dial(addr, 8)
	defer cli.Close()

	const writers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/race", Offset: int64((w*50 + i) * 4), Data: []byte("abcd")})
				switch {
				case err != nil:
					return // transport cut by Close: fine
				case resp.Err == "":
					continue // admitted and completed
				case strings.Contains(resp.Err, "queue closed"):
					return // typed closed error: the other legal outcome
				default:
					t.Errorf("writer %d: unexpected app error %q", w, resp.Err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let the storm begin
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
