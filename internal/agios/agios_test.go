package agios

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func req(path string, off, size int64) *Request {
	return &Request{Path: path, Offset: off, Size: size, Op: OpWrite, Data: make([]byte, size)}
}

func drain(s Scheduler) []*Request {
	var out []*Request
	for {
		r, ok := s.Pop()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	for i := int64(0); i < 5; i++ {
		r := req("/f", i*10, 10)
		r.Seq = uint64(i)
		f.Push(r)
	}
	got := drain(f)
	if len(got) != 5 {
		t.Fatalf("drained %d", len(got))
	}
	for i, r := range got {
		if r.Offset != int64(i)*10 {
			t.Fatalf("FIFO out of order at %d: %+v", i, r)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("empty pop should be !ok")
	}
}

func TestSJFOrder(t *testing.T) {
	s := NewSJF()
	sizes := []int64{500, 10, 300, 10, 100}
	for i, sz := range sizes {
		r := req("/f", int64(i)*1000, sz)
		r.Seq = uint64(i)
		s.Push(r)
	}
	got := drain(s)
	want := []int64{10, 10, 100, 300, 500}
	for i, r := range got {
		if r.Size != want[i] {
			t.Fatalf("SJF order wrong at %d: got %d want %d", i, r.Size, want[i])
		}
	}
	// Equal sizes: arrival order (seq 1 before seq 3).
	if got[0].Seq > got[1].Seq {
		t.Fatal("SJF tie-break not FIFO")
	}
}

func TestAIOLIAggregatesContiguous(t *testing.T) {
	a := NewAIOLI(1 << 20)
	// Three contiguous writes pushed out of order, plus a distant one.
	for _, off := range []int64{100, 0, 50, 5000} {
		size := int64(50)
		if off == 5000 {
			size = 10
		}
		r := req("/f", off, size)
		r.Data = bytes.Repeat([]byte{byte(off % 251)}, int(size))
		a.Push(r)
	}
	merged, ok := a.Pop()
	if !ok {
		t.Fatal("pop failed")
	}
	if merged.Offset != 0 || merged.Size != 150 {
		t.Fatalf("merge wrong: off=%d size=%d", merged.Offset, merged.Size)
	}
	if len(merged.Children) != 3 {
		t.Fatalf("want 3 children, got %d", len(merged.Children))
	}
	// Payload is the children's payloads in offset order.
	want := append(append(bytes.Repeat([]byte{0}, 50), bytes.Repeat([]byte{50}, 50)...), bytes.Repeat([]byte{100}, 50)...)
	if !bytes.Equal(merged.Data, want) {
		t.Fatal("merged payload wrong")
	}
	rest, ok := a.Pop()
	if !ok || rest.Offset != 5000 {
		t.Fatalf("second pop: %+v %v", rest, ok)
	}
	if a.Len() != 0 {
		t.Fatalf("len = %d", a.Len())
	}
}

func TestAIOLIDoesNotMergeAcrossGapsOrOps(t *testing.T) {
	a := NewAIOLI(1 << 20)
	a.Push(req("/f", 0, 10))
	gap := req("/f", 20, 10) // hole at [10,20)
	a.Push(gap)
	r1, _ := a.Pop()
	if r1.Size != 10 || len(r1.Children) != 0 {
		t.Fatalf("merged across a gap: %+v", r1)
	}
	b := NewAIOLI(1 << 20)
	b.Push(req("/f", 0, 10))
	read := &Request{Path: "/f", Offset: 10, Size: 10, Op: OpRead}
	b.Push(read)
	r2, _ := b.Pop()
	if len(r2.Children) != 0 {
		t.Fatal("merged write with read")
	}
}

func TestAIOLIMaxAggregate(t *testing.T) {
	a := NewAIOLI(1 << 20)
	a.MaxAggregate = 100
	for i := int64(0); i < 4; i++ {
		a.Push(req("/f", i*50, 50))
	}
	r, _ := a.Pop()
	if r.Size != 100 {
		t.Fatalf("aggregate should cap at 100, got %d", r.Size)
	}
}

func TestAIOLIQuantumRotatesFiles(t *testing.T) {
	a := NewAIOLI(100)
	a.MaxAggregate = 100
	// File A has 300 contiguous bytes, file B has 100.
	for i := int64(0); i < 3; i++ {
		a.Push(req("/a", i*100, 100))
	}
	a.Push(req("/b", 0, 100))
	first, _ := a.Pop()
	second, _ := a.Pop()
	if first.Path != "/a" || second.Path != "/b" {
		t.Fatalf("quantum rotation wrong: %s then %s", first.Path, second.Path)
	}
}

func TestAIOLIOffsetOrderWithinFile(t *testing.T) {
	a := NewAIOLI(1 << 30)
	offs := []int64{900, 100, 500, 300, 700}
	for _, o := range offs {
		a.Push(req("/f", o, 10))
	}
	var got []int64
	for {
		r, ok := a.Pop()
		if !ok {
			break
		}
		got = append(got, r.Offset)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("offsets not sorted: %v", got)
		}
	}
}

func TestTWINSWindowsByTarget(t *testing.T) {
	tw := NewTWINS(time.Hour, 2) // window never expires during the test
	now := time.Unix(0, 0)
	tw.now = func() time.Time { return now }
	// Target 0: offsets 0 and 2 MiB; target 1: offset 1 MiB.
	tw.Push(req("/f", 0, 10))
	tw.Push(req("/f", 1<<20, 10))
	tw.Push(req("/f", 2<<20, 10))
	a, _ := tw.Pop()
	b, _ := tw.Pop()
	if a.Offset != 0 || b.Offset != 2<<20 {
		t.Fatalf("window should serve target 0 first: %d then %d", a.Offset, b.Offset)
	}
	c, _ := tw.Pop()
	if c.Offset != 1<<20 {
		t.Fatalf("target 1 request should come last: %d", c.Offset)
	}
}

func TestTWINSWindowExpiryRotates(t *testing.T) {
	tw := NewTWINS(time.Millisecond, 2)
	now := time.Unix(0, 0)
	tw.now = func() time.Time { return now }
	tw.Push(req("/f", 0, 10))     // target 0
	tw.Push(req("/f", 0+10, 10))  // target 0
	tw.Push(req("/f", 1<<20, 10)) // target 1
	first, _ := tw.Pop()
	if first.Offset != 0 {
		t.Fatalf("first pop: %d", first.Offset)
	}
	// Let the window expire: next pop should rotate to target 1.
	now = now.Add(2 * time.Millisecond)
	second, _ := tw.Pop()
	if second.Offset != 1<<20 {
		t.Fatalf("after expiry want target 1, got offset %d", second.Offset)
	}
}

func TestTWINSDrainsEverything(t *testing.T) {
	tw := NewTWINS(time.Microsecond, 3)
	rng := rand.New(rand.NewSource(9))
	const n = 200
	for i := 0; i < n; i++ {
		tw.Push(req("/f", int64(rng.Intn(64))<<20, 10))
	}
	seen := 0
	for {
		_, ok := tw.Pop()
		if !ok {
			break
		}
		seen++
	}
	if seen != n {
		t.Fatalf("drained %d of %d", seen, n)
	}
}

func TestCompleteFansOutToChildren(t *testing.T) {
	var mu sync.Mutex
	done := map[int]bool{}
	parent := &Request{}
	for i := 0; i < 3; i++ {
		i := i
		parent.Children = append(parent.Children, &Request{OnComplete: func(error) {
			mu.Lock()
			done[i] = true
			mu.Unlock()
		}})
	}
	parent.Complete(nil)
	if len(done) != 3 {
		t.Fatalf("fan-out incomplete: %v", done)
	}
}

func TestQueueBlocksAndWakes(t *testing.T) {
	q := NewQueue(NewFIFO())
	got := make(chan *Request, 1)
	go func() {
		r, ok := q.PopWait()
		if ok {
			got <- r
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := q.Push(req("/f", 0, 10)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r == nil || r.Path != "/f" {
			t.Fatalf("bad pop: %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("PopWait never woke")
	}
}

func TestQueueCloseWakesWaiters(t *testing.T) {
	q := NewQueue(NewFIFO())
	doneCh := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, ok := q.PopWait()
			doneCh <- ok
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-doneCh:
			if ok {
				t.Fatal("closed empty queue should report !ok")
			}
		case <-time.After(time.Second):
			t.Fatal("waiter never woke after Close")
		}
	}
	if err := q.Push(req("/f", 0, 1)); err == nil {
		t.Fatal("push after close should fail")
	}
}

func TestQueueDrainAfterClose(t *testing.T) {
	q := NewQueue(NewFIFO())
	q.Push(req("/f", 0, 1))
	q.Push(req("/f", 1, 1))
	q.Close()
	if r, ok := q.PopWait(); !ok || r == nil {
		t.Fatal("pending requests must drain after close")
	}
	if _, ok := q.PopWait(); !ok {
		t.Fatal("second request must drain")
	}
	if _, ok := q.PopWait(); ok {
		t.Fatal("drained closed queue should be !ok")
	}
}

func TestQueueAssignsSeqAndArrival(t *testing.T) {
	q := NewQueue(NewFIFO())
	r1, r2 := req("/f", 0, 1), req("/f", 1, 1)
	q.Push(r1)
	q.Push(r2)
	if r1.Seq == 0 || r2.Seq <= r1.Seq {
		t.Fatalf("seq not monotone: %d %d", r1.Seq, r2.Seq)
	}
	if r1.Arrival.IsZero() {
		t.Fatal("arrival not stamped")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(NewSJF())
	const producers, perProducer, consumers = 4, 100, 3
	var wg sync.WaitGroup
	var consumed sync.WaitGroup
	consumed.Add(producers * perProducer)
	var count int64
	var mu sync.Mutex
	for c := 0; c < consumers; c++ {
		go func() {
			for {
				_, ok := q.PopWait()
				if !ok {
					return
				}
				mu.Lock()
				count++
				mu.Unlock()
				consumed.Done()
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Push(req("/f", int64(i), int64(i%7+1))); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	consumed.Wait()
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if count != producers*perProducer {
		t.Fatalf("consumed %d of %d", count, producers*perProducer)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"FIFO", "SJF", "AIOLI", "TWINS", "HBRR", ""} {
		if _, err := NewByName(name); err != nil {
			t.Errorf("NewByName(%q): %v", name, err)
		}
	}
	if _, err := NewByName("bogus"); err == nil {
		t.Error("bogus scheduler name should fail")
	}
}

func TestOpTypeString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" {
		t.Fatal("OpType stringer wrong")
	}
}

func TestHBRRRoundRobinWithQuantum(t *testing.T) {
	h := NewHBRR(2)
	// Two handles, non-contiguous requests so no merging interferes.
	for i := int64(0); i < 4; i++ {
		h.Push(req("/a", i*1000, 10))
		h.Push(req("/b", i*1000, 10))
	}
	var order []string
	for {
		r, ok := h.Pop()
		if !ok {
			break
		}
		order = append(order, r.Path)
	}
	want := []string{"/a", "/a", "/b", "/b", "/a", "/a", "/b", "/b"}
	if len(order) != len(want) {
		t.Fatalf("drained %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order wrong at %d: %v", i, order)
		}
	}
}

func TestHBRRAggregatesWithinTurn(t *testing.T) {
	h := NewHBRR(8)
	for i := int64(0); i < 4; i++ {
		h.Push(req("/f", i*100, 100)) // contiguous
	}
	r, ok := h.Pop()
	if !ok || r.Size != 400 || len(r.Children) != 4 {
		t.Fatalf("merge wrong: size=%d children=%d", r.Size, len(r.Children))
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestHBRRQuantumCountsAggregatedRequests(t *testing.T) {
	h := NewHBRR(2)
	h.MaxAggregate = 1 << 20
	// /a has 4 contiguous requests; quantum 2 means the merge consumes
	// the whole turn budget after two requests... mergeHead may take all
	// four at once (a single dispatch), which still counts 4 against the
	// quantum, so /b is served next.
	for i := int64(0); i < 4; i++ {
		h.Push(req("/a", i*100, 100))
	}
	h.Push(req("/b", 0, 10))
	first, _ := h.Pop()
	second, _ := h.Pop()
	if first.Path != "/a" || second.Path != "/b" {
		t.Fatalf("quantum accounting wrong: %s then %s", first.Path, second.Path)
	}
}

func TestHBRRDrainsEverything(t *testing.T) {
	h := NewHBRR(3)
	total := 0
	for f := 0; f < 5; f++ {
		for i := int64(0); i < 7; i++ {
			h.Push(req("/f"+string(rune('0'+f)), i*1000, 10))
			total++
		}
	}
	drained := 0
	for {
		r, ok := h.Pop()
		if !ok {
			break
		}
		if len(r.Children) > 0 {
			drained += len(r.Children)
		} else {
			drained++
		}
	}
	if drained != total {
		t.Fatalf("drained %d of %d", drained, total)
	}
}
