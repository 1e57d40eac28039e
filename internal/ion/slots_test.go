package ion

// Dispatch-slot invariants of the daemon: the scheduler decides when a
// request runs, the connection goroutine that submitted it does the
// running, and at most Dispatchers backend calls are in flight. Nothing
// here asserts an absolute time.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/agios"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

// probeBackend records what reaches the PFS: every WriteAs and staged
// Install in entry order, how many ran at once, and how long the slowest
// took. A non-nil gate blocks writes until it is closed; service is a
// fixed per-write cost.
type probeBackend struct {
	*pfs.Store
	gate    chan struct{}
	service time.Duration

	mu      sync.Mutex
	calls   []probeCall
	running int
	widest  int
	slowest time.Duration
}

type probeCall struct {
	path string
	off  int64
	size int
}

func (b *probeBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	return b.probe(path, off, len(p), func() (int, error) { return b.Store.WriteAs(writer, path, off, p) })
}

func (b *probeBackend) Install(writer string, st *pfs.Stage) (int, error) {
	return b.probe(st.Path, st.Offset, st.Len(), func() (int, error) { return b.Store.Install(writer, st) })
}

// probe records one write of n bytes at off to path around apply.
func (b *probeBackend) probe(path string, off int64, n int, apply func() (int, error)) (int, error) {
	start := time.Now()
	b.mu.Lock()
	b.calls = append(b.calls, probeCall{path, off, n})
	if b.running++; b.running > b.widest {
		b.widest = b.running
	}
	b.mu.Unlock()
	if b.gate != nil {
		<-b.gate
	}
	if b.service > 0 {
		time.Sleep(b.service)
	}
	n, err := apply()
	b.mu.Lock()
	b.running--
	if d := time.Since(start); d > b.slowest {
		b.slowest = d
	}
	b.mu.Unlock()
	return n, err
}

func (b *probeBackend) snapshot() (calls []probeCall, widest int, slowest time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]probeCall(nil), b.calls...), b.widest, b.slowest
}

func newProbe(gated bool) *probeBackend {
	b := &probeBackend{Store: pfs.NewStore(pfs.Config{})}
	if gated {
		b.gate = make(chan struct{})
	}
	return b
}

// holdSlots issues one gated write per dispatch slot on /hold and returns
// once all of them sit inside the backend, so that whatever is submitted
// next has to queue. A holder may only fail once the daemon is closing
// (Close tears its connection down under it).
func holdSlots(t *testing.T, d *Daemon, b *probeBackend, cli *rpc.Client, slots int, wg *sync.WaitGroup) {
	t.Helper()
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/hold", Offset: int64(i), Data: []byte{1}}); err != nil && !d.closed.Load() {
				t.Errorf("holder %d: %v", i, err)
			}
		}()
	}
	testkit.Eventually(t, "the holders to reach the backend", func() bool {
		calls, _, _ := b.snapshot()
		return len(calls) == slots
	})
}

// (1) width: Dispatchers bounds concurrent backend calls.
func TestSlotWidthBoundsBackendCalls(t *testing.T) {
	b := newProbe(true)
	d, cli := startOn(t, Config{ID: "w", Dispatchers: 2}, b, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/w", Offset: int64(w) * 4, Data: []byte("abcd")})
			if err != nil || resp.Size != 4 {
				t.Errorf("writer %d: resp=%+v err=%v", w, resp, err)
			}
		}()
	}
	testkit.Eventually(t, "2 writes in the backend and 6 queued", func() bool {
		calls, _, _ := b.snapshot()
		return len(calls) == 2 && d.QueueDepth() == 6
	})
	close(b.gate)
	wg.Wait()
	calls, widest, _ := b.snapshot()
	if widest != 2 {
		t.Fatalf("backend saw %d concurrent calls, want exactly the 2 slots", widest)
	}
	if len(calls) != 8 || d.QueueDepth() != 0 {
		t.Fatalf("calls=%d depth=%d after release, want 8/0", len(calls), d.QueueDepth())
	}
	if h := d.Stats().Handoffs; h != 6 {
		t.Fatalf("Handoffs = %d, want the 6 writers that had to park", h)
	}
}

// (2) order: parked submitters run in the scheduler's order, not arrival
// order.
func TestSlotHandoffFollowsScheduler(t *testing.T) {
	type sub struct {
		size     int
		priority uint8
	}
	cases := []struct {
		name  string
		sched agios.Scheduler
		subs  []sub // submitted in this order behind a held slot
		want  []int // sizes in the order the backend must see them
	}{
		{"SJF", agios.NewSJF(),
			[]sub{{4096, 0}, {1024, 0}, {2048, 0}, {512, 0}},
			[]int{512, 1024, 2048, 4096}},
		{"WFQ", agios.NewWFQ(0),
			[]sub{{10, 1}, {20, 1}, {30, 2}, {40, 3}}, // scavenger ×2, standard, guaranteed
			[]int{40, 30, 10, 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newProbe(true)
			d, cli := startOn(t, Config{ID: "o", Scheduler: tc.sched, Dispatchers: 1}, b, 8)
			var wg sync.WaitGroup
			holdSlots(t, d, b, cli, 1, &wg)
			for i, s := range tc.subs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/o", Offset: int64(i) * 8192,
						Data: make([]byte, s.size), Priority: s.priority})
					if err != nil || resp.Size != int64(s.size) {
						t.Errorf("submitter %d: resp=%+v err=%v", i, resp, err)
					}
				}()
				// One at a time, so arrival order is the submission order.
				testkit.Eventually(t, "the submission to queue", func() bool { return d.QueueDepth() == i+1 })
			}
			close(b.gate)
			wg.Wait()
			calls, widest, _ := b.snapshot()
			var got []int
			for _, c := range calls[1:] {
				got = append(got, c.size)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("backend order %v, want %s order %v", got, tc.name, tc.want)
			}
			if widest != 1 {
				t.Fatalf("%d concurrent backend calls with one slot", widest)
			}
			if h := d.Stats().Handoffs; h != int64(len(tc.subs)) {
				t.Fatalf("Handoffs = %d, want %d", h, len(tc.subs))
			}
		})
	}
}

// (3) aggregation: queued contiguous writes from different connections
// dispatch as one backend call executed by the head's submitter; every
// submitter still gets its own answer.
func TestSlotAggregateAnswersEverySubmitter(t *testing.T) {
	b := newProbe(true)
	d, cli := startOn(t, Config{ID: "a", Scheduler: agios.NewAIOLI(0), Dispatchers: 1}, b, 16)
	var wg sync.WaitGroup
	holdSlots(t, d, b, cli, 1, &wg)
	const n = 8
	var want []byte
	for i := 0; i < n; i++ {
		size := 4096
		if i%2 == 1 {
			size = 2048 // own Size per submitter
		}
		payload := bytes.Repeat([]byte{byte('a' + i)}, size)
		off := int64(len(want))
		want = append(want, payload...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/agg", Offset: off, Data: payload})
			if err != nil || resp.Err != "" || resp.Size != int64(size) {
				t.Errorf("submitter %d: resp=%+v err=%v, want Size %d", i, resp, err, size)
			}
		}()
	}
	testkit.Eventually(t, "all contiguous writes to queue", func() bool { return d.QueueDepth() == n })
	close(b.gate)
	wg.Wait()
	calls, _, _ := b.snapshot()
	if len(calls) != 2 || calls[1].size != len(want) {
		t.Fatalf("backend calls %+v, want the holder plus one %d-byte aggregate", calls, len(want))
	}
	s := d.Stats()
	if s.Aggregated != n || s.Dispatches != 2 || s.Writes != n+1 || s.BytesIn != int64(len(want))+1 {
		t.Fatalf("stats %+v, want %d aggregated into 2 dispatches, %d bytes in", s, n, len(want)+1)
	}
	if s.Handoffs != 1 {
		t.Fatalf("Handoffs = %d, want 1: only the aggregate's head was handed a slot", s.Handoffs)
	}
	got := make([]byte, len(want))
	if _, err := b.Store.Read("/agg", 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes at the PFS differ from what the submitters wrote (err=%v)", err)
	}
}

// (4) work conservation: more closed-loop writers than slots always drain.
// A lost wake-up hangs this test.
func TestSlotWorkConservation(t *testing.T) {
	const writers, ops = 64, 200
	for _, width := range []int{1, 2, 4} {
		t.Run(fmt.Sprint(width), func(t *testing.T) {
			store := pfs.NewStore(pfs.Config{})
			d, cli := startOn(t, Config{ID: "c", Scheduler: agios.NewAIOLI(0), Dispatchers: width}, store, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					path := fmt.Sprintf("/c%d", w/4) // four writers per file: aggregates form
					for i := 0; i < ops; i++ {
						resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: path, Offset: int64(w%4*ops+i) * 16, Data: make([]byte, 16)})
						if err != nil || resp.Size != 16 {
							t.Errorf("writer %d op %d: resp=%+v err=%v", w, i, resp, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			s := d.Stats()
			if s.Writes != writers*ops || s.BytesIn != writers*ops*16 {
				t.Fatalf("writes=%d bytesIn=%d, want %d/%d", s.Writes, s.BytesIn, writers*ops, writers*ops*16)
			}
			if d.QueueDepth() != 0 {
				t.Fatalf("queue depth %d after every writer returned", d.QueueDepth())
			}
		})
	}
}

// (5) fairness: a slot holder never runs anybody else's request after its
// own, so with one slot and four closed-loop writers a response waits for
// about one round of the others — in dispatches seen, and in time relative
// to the service time the backend actually delivered.
func TestSlotHolderServesOnlyItsOwnRequest(t *testing.T) {
	const writers, ops = 4, 25
	b := newProbe(false)
	b.service = 2 * time.Millisecond
	_, cli := startOn(t, Config{ID: "f", Dispatchers: 1}, b, writers)
	var mu sync.Mutex
	var longest time.Duration
	mostPassed := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				before, _, _ := b.snapshot()
				start := time.Now()
				if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: int64(w*ops+i) * 64, Data: []byte("x")}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				took := time.Since(start)
				after, _, _ := b.snapshot()
				mu.Lock()
				if took > longest {
					longest = took
				}
				if n := len(after) - len(before); n > mostPassed {
					mostPassed = n
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Under FIFO a request waits for the dispatch in service, the (writers-1)
	// queued ahead of it, and itself; the writers answered meanwhile may
	// each start one more before this writer looks again.
	if limit := 3 * writers; mostPassed > limit {
		t.Fatalf("a response waited through %d dispatches, want ≤ %d with %d closed-loop writers", mostPassed, limit, writers)
	}
	_, _, slowest := b.snapshot()
	if limit := 5 * writers * slowest; longest > limit {
		t.Fatalf("a response took %v, want ≤ 5 × %d writers × %v slowest service", longest, writers, slowest)
	}
}

// (6) lifecycle: Close with submitters parked for a slot drains them and
// returns; Restart serves again.
func TestSlotCloseDrainsParkedSubmitters(t *testing.T) {
	b := newProbe(true)
	d, cli := startOn(t, Config{ID: "l", Dispatchers: 1, QueueCap: 3}, b, 8)
	var wg sync.WaitGroup
	holdSlots(t, d, b, cli, 1, &wg)
	var answered sync.WaitGroup
	for i := 0; i < 3; i++ {
		answered.Add(1)
		go func() {
			defer answered.Done()
			// Answered, or the conn is torn down by Close: both are legal;
			// hanging is not.
			resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/l", Offset: int64(i) * 4, Data: []byte("abcd")})
			if err == nil && resp.Err != "" {
				t.Errorf("parked writer %d: app error %q", i, resp.Err)
			}
		}()
	}
	testkit.Eventually(t, "three writers to park", func() bool { return d.QueueDepth() == 3 })

	// The queue is at its cap: a read is shed with a busy response and
	// takes no slot (its pooled destination buffer goes back through the
	// same PutBuffer call as before).
	before := d.Stats()
	resp := d.handle(&rpc.Message{Op: rpc.OpRead, Path: "/l", Size: 4096})
	if !resp.Busy || resp.RetryAfter <= 0 || len(resp.Data) != 0 {
		t.Fatalf("read above the cap: %+v, want a busy response", resp)
	}
	if s := d.Stats(); s.Dispatches != before.Dispatches || s.Handoffs != before.Handoffs || s.Reads != before.Reads || s.QueueRejects != before.QueueRejects+1 {
		t.Fatalf("shed read moved more than the reject counter: %+v → %+v", before, s)
	}

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while admitted writes were still gated", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(b.gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	answered.Wait()
	wg.Wait()
	// Every admitted write ran: Close needs no separate queue drain.
	if calls, _, _ := b.snapshot(); len(calls) != 4 || d.QueueDepth() != 0 {
		t.Fatalf("after Close: %d backend calls, depth %d, want 4/0", len(calls), d.QueueDepth())
	}
	if s := d.Stats(); s.Handoffs != 3 {
		t.Fatalf("Handoffs = %d, want 3", s.Handoffs)
	}
	// A handler that outlived Close would see the typed closed error.
	late := d.handle(&rpc.Message{Op: rpc.OpWrite, Path: "/l", Data: []byte("late")})
	if late.Err != agios.ErrQueueClosed.Error() || late.Busy {
		t.Fatalf("write on the closed generation: %+v, want the closed-queue error", late)
	}

	addr, err := d.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := rpc.Dial(addr, 1)
	defer fresh.Close()
	if resp, err := fresh.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/l", Offset: 64, Data: []byte("back")}); err != nil || resp.Size != 4 {
		t.Fatalf("write after restart: resp=%+v err=%v", resp, err)
	}
}

// (7) no pool: a started daemon runs its accept loop and nothing else.
func TestStartLaunchesOnlyTheAcceptLoop(t *testing.T) {
	settled := func() int {
		n := runtime.NumGoroutine()
		for stable := 0; stable < 5; {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				stable++
			} else {
				n, stable = m, 0
			}
		}
		return n
	}
	before := settled()
	d := New(Config{ID: "g", Dispatchers: 4}, pfs.NewStore(pfs.Config{}))
	if _, err := d.Start(""); err != nil {
		t.Fatal(err)
	}
	if delta := settled() - before; delta != 1 {
		d.Close()
		t.Fatalf("Start launched %d goroutines, want 1 (the accept loop)", delta)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if delta := settled() - before; delta != 0 {
		t.Fatalf("%d goroutines left after Close", delta)
	}
}

// One closed-loop client never waits for a slot: every request arrives at
// an idle daemon and runs straight through on its connection's goroutine.
func TestClosedLoopClientNeverHandsOff(t *testing.T) {
	d, cli := startOn(t, Config{ID: "h", Scheduler: agios.NewAIOLI(0)}, pfs.NewStore(pfs.Config{}), 2)
	payload := bytes.Repeat([]byte("p"), 4096)
	for i := 0; i < 1000; i++ {
		off := int64(i%16) * 4096
		if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/h", Offset: off, Data: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := cli.Call(&rpc.Message{Op: rpc.OpRead, Path: "/h", Offset: off, Size: 4096})
		if err != nil || !bytes.Equal(resp.Data, payload) {
			t.Fatalf("read %d: err=%v, %d bytes", i, err, len(resp.Data))
		}
	}
	s := d.Stats()
	if s.Handoffs != 0 {
		t.Fatalf("Handoffs = %d on a closed-loop client, want exactly 0", s.Handoffs)
	}
	if s.Dispatches != 2000 || s.Writes != 1000 || s.Reads != 1000 {
		t.Fatalf("stats %+v, want 2000 dispatches for 1000 writes + 1000 reads", s)
	}
}
