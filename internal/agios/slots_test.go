package agios

// Dispatch-slot tests for Queue (Submit / Wait / Finish) and the
// drained-file regression for the two per-file schedulers. Nothing here
// asserts an absolute time.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slotState reads the slot accounting under the lock.
func slotState(q *Queue) (free, pending int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.free, q.sched.Len()
}

func TestSubmitRunsInlineOnIdleQueue(t *testing.T) {
	q := NewQueue(NewAIOLI(0))
	q.SetSlots(2)
	r := req("/f", 0, 8)
	pick, err := q.Submit(r)
	if err != nil || pick != r {
		t.Fatalf("idle submit: pick=%p err=%v, want the request itself", pick, err)
	}
	if r.Seq == 0 || r.Arrival.IsZero() {
		t.Fatal("submit must stamp seq and arrival like Push")
	}
	if free, pending := slotState(q); free != 1 || pending != 0 {
		t.Fatalf("after inline pick: free=%d pending=%d, want 1/0", free, pending)
	}
	q.Finish(pick, nil)
	if free, _ := slotState(q); free != 2 {
		t.Fatalf("after finish: free=%d, want 2", free)
	}
}

// TestFinishHandsSlotInSchedulerOrder holds the only slot, parks three
// submitters under SJF, and checks that each Finish hands the slot to the
// scheduler's pick rather than to the earliest arrival.
func TestFinishHandsSlotInSchedulerOrder(t *testing.T) {
	q := NewQueue(NewSJF())
	first := req("/f", 0, 1)
	held, err := q.Submit(first)
	if err != nil || held != first {
		t.Fatalf("first submit: %v %v", held, err)
	}
	var order []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, size := range []int64{300, 100, 200} {
		r := req("/f", size, size)
		pick, err := q.Submit(r)
		if err != nil || pick != nil {
			t.Fatalf("submit with the slot held: pick=%v err=%v, want parked", pick, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick, _ := q.Wait(r)
			if pick != r {
				t.Errorf("woken with %v, want own request", pick)
			}
			mu.Lock()
			order = append(order, r.Size)
			mu.Unlock()
			q.Finish(pick, nil)
		}()
	}
	if free, pending := slotState(q); free != 0 || pending != 3 {
		t.Fatalf("slot held: free=%d pending=%d, want 0/3", free, pending)
	}
	q.Finish(held, nil)
	wg.Wait()
	if fmt.Sprint(order) != "[100 200 300]" {
		t.Fatalf("dispatch order %v, want SJF order [100 200 300]", order)
	}
	if free, pending := slotState(q); free != 1 || pending != 0 {
		t.Fatalf("drained: free=%d pending=%d, want 1/0", free, pending)
	}
}

// TestAggregateRunsOnHeadSubmitter parks three contiguous writes under
// AIOLI: one Finish pops them as a single aggregate, the head child's
// submitter is handed the slot with the whole aggregate, and the other two
// wake with the outcome the head reported.
func TestAggregateRunsOnHeadSubmitter(t *testing.T) {
	q := NewQueue(NewAIOLI(0))
	held, _ := q.Submit(req("/hold", 0, 8))
	reqs := []*Request{req("/f", 8, 8), req("/f", 0, 8), req("/f", 16, 8)} // head is offset 0
	for _, r := range reqs {
		if pick, err := q.Submit(r); pick != nil || err != nil {
			t.Fatalf("want parked, got pick=%v err=%v", pick, err)
		}
	}
	outcome := errors.New("backend said no")
	type woke struct {
		pick *Request
		err  error
	}
	results := make([]woke, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick, err := q.Wait(r)
			results[i] = woke{pick, err}
			if pick != nil {
				q.Finish(pick, outcome)
			}
		}()
	}
	q.Finish(held, nil)
	wg.Wait()
	if agg := results[1].pick; agg == nil || len(agg.Children) != 3 || agg.Size != 24 || agg.Children[0] != reqs[1] {
		t.Fatalf("head submitter got %+v, want the 3-child aggregate headed by its request", agg)
	}
	for _, i := range []int{0, 2} {
		if results[i].pick != nil || results[i].err != outcome {
			t.Fatalf("child %d woke with pick=%v err=%v, want the head's outcome", i, results[i].pick, results[i].err)
		}
	}
	if free, pending := slotState(q); free != 1 || pending != 0 {
		t.Fatalf("drained: free=%d pending=%d, want 1/0", free, pending)
	}
}

// withholding is a FIFO that can be told to yield nothing while it has
// requests: the one way a slot can be free with the queue non-empty.
type withholding struct {
	FIFO
	hold atomic.Bool
}

func (w *withholding) Pop() (*Request, bool) {
	if w.hold.Load() {
		return nil, false
	}
	return w.FIFO.Pop()
}

// TestSlotGoesToThePicksSubmitter pins the general rule behind the inline
// path: whoever pops, the slot goes to the submitter of the pick's head.
func TestSlotGoesToThePicksSubmitter(t *testing.T) {
	sched := &withholding{}
	q := NewQueue(sched)
	sched.hold.Store(true)
	r1, r2 := req("/f", 0, 1), req("/f", 1, 1)
	if pick, err := q.Submit(r1); pick != nil || err != nil {
		t.Fatalf("withheld submit: pick=%v err=%v", pick, err)
	}
	sched.hold.Store(false)
	// r2's submit finds the slot free but the scheduler picks r1.
	if pick, err := q.Submit(r2); pick != nil || err != nil {
		t.Fatalf("second submit must park behind the older pick: pick=%v err=%v", pick, err)
	}
	if pick, _ := q.Wait(r1); pick != r1 {
		t.Fatalf("r1's submitter woke with %v", pick)
	}
	q.Finish(r1, nil)
	if pick, _ := q.Wait(r2); pick != r2 {
		t.Fatalf("r2's submitter woke with %v", pick)
	}
	q.Finish(r2, nil)
	if free, pending := slotState(q); free != 1 || pending != 0 {
		t.Fatalf("drained: free=%d pending=%d, want 1/0", free, pending)
	}
}

func TestSubmitAdmissionMatchesPush(t *testing.T) {
	q := NewQueue(NewFIFO())
	q.SetCapacity(1)
	held, _ := q.Submit(req("/f", 0, 1))
	if _, err := q.Submit(req("/f", 1, 1)); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	shed := req("/f", 2, 1)
	if pick, err := q.Submit(shed); pick != nil || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit at capacity: pick=%v err=%v, want ErrQueueFull", pick, err)
	}
	if shed.parked != nil || shed.Seq != 0 {
		t.Fatal("a shed request must not be stamped or parked")
	}
	if free, pending := slotState(q); free != 0 || pending != 1 {
		t.Fatalf("after shed: free=%d pending=%d, want 0/1", free, pending)
	}
	q.Close()
	if _, err := q.Submit(req("/f", 3, 1)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close: %v, want ErrQueueClosed", err)
	}
	// Closing stops admission only: the parked request still gets its turn.
	q.Finish(held, nil)
	if free, pending := slotState(q); free != 0 || pending != 0 {
		t.Fatalf("slot should have moved to the parked request: free=%d pending=%d", free, pending)
	}
}

// TestSlotsWorkConservation hammers every scheduler with more submitters
// than slots. A lost wake-up hangs it; a leaked or duplicated slot shows in
// the width check or the final accounting.
func TestSlotsWorkConservation(t *testing.T) {
	for _, name := range []string{"FIFO", "SJF", "AIOLI", "HBRR", "TWINS", "WFQ"} {
		for _, slots := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, slots), func(t *testing.T) {
				sched, err := NewByName(name)
				if err != nil {
					t.Fatal(err)
				}
				q := NewQueue(sched)
				q.SetSlots(slots)
				const submitters, each = 16, 200
				var running, widest, executed, answered atomic.Int64
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < each; i++ {
							// Two submitters per file, contiguous offsets, so
							// the merging schedulers build aggregates.
							r := req(fmt.Sprintf("/f%d", s/2), int64(s%2*each+i)*8, 8)
							r.Priority = uint8(s % 4)
							pick, err := q.Submit(r)
							if err != nil {
								t.Error(err)
								return
							}
							if pick == nil {
								if pick, _ = q.Wait(r); pick == nil {
									answered.Add(1)
									continue
								}
							}
							if n := running.Add(1); n > widest.Load() {
								widest.Store(n)
							}
							if n := int64(len(pick.Children)); n > 0 {
								executed.Add(n)
							} else {
								executed.Add(1)
							}
							answered.Add(1)
							running.Add(-1)
							q.Finish(pick, nil)
						}
					}()
				}
				wg.Wait()
				if w := widest.Load(); w > int64(slots) {
					t.Fatalf("%d picks ran at once with %d slots", w, slots)
				}
				if got := executed.Load(); got != submitters*each {
					t.Fatalf("executed %d requests, want %d", got, submitters*each)
				}
				if got := answered.Load(); got != submitters*each {
					t.Fatalf("answered %d submitters, want %d", got, submitters*each)
				}
				if free, pending := slotState(q); free != slots || pending != 0 {
					t.Fatalf("drained: free=%d pending=%d, want %d/0", free, pending, slots)
				}
			})
		}
	}
}

// TestDrainedFilesLeaveTheRing is the file-per-process regression: AIOLI
// and HBRR used to keep every file they had ever seen in files/order and
// walk past the empty ones on each Pop, under the queue lock.
func TestDrainedFilesLeaveTheRing(t *testing.T) {
	const paths = 20000
	pushPop := func(s Scheduler) time.Duration {
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				s.Push(req("/live", int64(i)*16, 8)) // sparse: no merging
				if _, ok := s.Pop(); !ok {
					t.Fatal("pop after push returned nothing")
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	cases := []struct {
		name  string
		fresh func() Scheduler
		ring  func(Scheduler) *fileRing
	}{
		{"AIOLI", func() Scheduler { return NewAIOLI(0) }, func(s Scheduler) *fileRing { return &s.(*AIOLI).fileRing }},
		{"HBRR", func() Scheduler { return NewHBRR(0) }, func(s Scheduler) *fileRing { return &s.(*HBRR).fileRing }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			used := tc.fresh()
			for i := 0; i < paths; i++ {
				used.Push(req(fmt.Sprintf("/oneshot/%d", i), 0, 8))
				if i%2 == 1 { // drain in pairs so the ring is exercised with >1 file
					used.Pop()
					used.Pop()
				}
			}
			if used.Len() != 0 {
				t.Fatalf("%d requests left", used.Len())
			}
			if ring := tc.ring(used); len(ring.order) != 0 || len(ring.files) != 0 {
				t.Fatalf("after %d one-shot paths: len(order)=%d len(files)=%d, want 0/0", paths, len(ring.order), len(ring.files))
			}
			fresh, after := pushPop(tc.fresh()), pushPop(used)
			if after > 3*fresh {
				t.Fatalf("push+pop on a live file: %v after %d one-shot paths vs %v fresh (> 3×)", after, paths, fresh)
			}
		})
	}
}

// TestSubmitFinishAllocationPin: a closed loop of Submit → (execute) →
// Finish on one recycled request allocates nothing under any scheduler —
// the per-file schedulers reuse the drained file's queue, the FIFO-shaped
// ones their backing arrays.
func TestSubmitFinishAllocationPin(t *testing.T) {
	for _, name := range []string{"FIFO", "SJF", "AIOLI", "HBRR", "TWINS", "WFQ"} {
		s, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		q := NewQueue(s)
		r := new(Request)
		var off int64
		loop := func() {
			off += 4096
			*r = Request{Path: "/pin", Offset: off, Size: 4096, Op: OpWrite, Priority: 3}
			pick, err := q.Submit(r)
			if err != nil || pick != r {
				t.Fatalf("%s: Submit on an idle queue = %v, %v; want the request itself", name, pick, err)
			}
			q.Finish(pick, nil)
		}
		for i := 0; i < 8; i++ {
			loop()
		}
		if got := testing.AllocsPerRun(200, loop); got > 0 {
			t.Errorf("%s: %.1f allocs per Submit→Finish, want 0", name, got)
		}
	}
}
