package agios

// Bounded-admission and shutdown-race tests for the queue: the watermark
// hysteresis that makes a saturated daemon shed instead of buffering
// unboundedly, and the Push/Close race whose only legal outcomes are
// "enqueued" or "ErrQueueClosed".

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestBoundedQueueWatermarkHysteresis(t *testing.T) {
	q := NewQueue(NewFIFO())
	reg := telemetry.New()
	q.Instrument(reg, "")
	q.SetCapacity(4)
	if q.Capacity() != 4 {
		t.Fatalf("Capacity = %d, want 4", q.Capacity())
	}

	// Fill to the high watermark.
	for i := int64(0); i < 4; i++ {
		if err := q.Push(req("/b", i*10, 10)); err != nil {
			t.Fatalf("push %d within capacity: %v", i, err)
		}
	}
	if err := q.Push(req("/b", 100, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push above capacity: want ErrQueueFull, got %v", err)
	}
	if !q.Saturated() {
		t.Fatal("queue should be saturated after a rejected push")
	}
	if got := reg.Gauge("agios_queue_saturated").Value(); got != 1 {
		t.Fatalf("agios_queue_saturated = %d, want 1", got)
	}

	// One pop (depth 4 → 3) is above the low watermark: still rejecting.
	if _, ok := q.PopWait(); !ok {
		t.Fatal("pop from a full queue failed")
	}
	if err := q.Push(req("/b", 110, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("hysteresis should still reject at depth 3: got %v", err)
	}

	// Drain to the low watermark (depth 2): admission resumes.
	if _, ok := q.PopWait(); !ok {
		t.Fatal("second pop failed")
	}
	if q.Saturated() {
		t.Fatal("queue should desaturate at the low watermark")
	}
	if got := reg.Gauge("agios_queue_saturated").Value(); got != 0 {
		t.Fatalf("agios_queue_saturated = %d, want 0 after drain", got)
	}
	if err := q.Push(req("/b", 120, 10)); err != nil {
		t.Fatalf("push after drain should be admitted: %v", err)
	}
}

// TestSetCapacityClears: removing the bound lifts saturation immediately.
func TestSetCapacityClears(t *testing.T) {
	q := NewQueue(NewFIFO())
	q.SetCapacity(3)
	for i := int64(0); i < 3; i++ {
		if err := q.Push(req("/c", i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(req("/c", 100, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	q.SetCapacity(0)
	if q.Saturated() {
		t.Fatal("unbounded queue cannot be saturated")
	}
	for i := int64(0); i < 64; i++ {
		if err := q.Push(req("/c", 200+i*10, 10)); err != nil {
			t.Fatalf("unbounded queue rejected push %d: %v", i, err)
		}
	}
}

// TestSetCapacityLowWaterIsHalf: admission resumes once the depth drains
// to capacity/2, rounded down, for odd capacities and for capacity 1.
func TestSetCapacityLowWaterIsHalf(t *testing.T) {
	for _, capacity := range []int{1, 5} {
		q := NewQueue(NewFIFO())
		q.SetCapacity(capacity)
		for i := 0; i < capacity; i++ {
			if err := q.Push(req("/h", int64(i)*100, 10)); err != nil {
				t.Fatalf("capacity %d: push %d: %v", capacity, i, err)
			}
		}
		if err := q.Push(req("/h", 10_000, 10)); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("capacity %d: want ErrQueueFull, got %v", capacity, err)
		}
		for depth := capacity - 1; depth > capacity/2; depth-- {
			q.PopWait()
			if !q.Saturated() {
				t.Fatalf("capacity %d: desaturated at depth %d, above the low water %d", capacity, depth, capacity/2)
			}
		}
		q.PopWait()
		if q.Saturated() {
			t.Fatalf("capacity %d: still saturated at the low water %d", capacity, capacity/2)
		}
		if err := q.Push(req("/h", 20_000, 10)); err != nil {
			t.Fatalf("capacity %d: push at the low water: %v", capacity, err)
		}
	}
}

// TestPushCloseRaceIsDeterministic is the shutdown-race regression: many
// producers hammer Push while Close lands mid-storm. Every push must
// either succeed (and the request must then be drainable) or fail with
// exactly ErrQueueClosed — no panics, no other errors, no lost requests.
func TestPushCloseRaceIsDeterministic(t *testing.T) {
	const producers = 8
	const perProducer = 200
	q := NewQueue(NewFIFO())

	var (
		wg      sync.WaitGroup
		okCount int64
		mu      sync.Mutex
	)
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < perProducer; i++ {
				err := q.Push(req("/race", int64(p*perProducer+i)*8, 8))
				switch {
				case err == nil:
					mu.Lock()
					okCount++
					mu.Unlock()
				case errors.Is(err, ErrQueueClosed):
					// the only legal failure once Close has landed
				default:
					t.Errorf("producer %d push %d: unexpected error %v", p, i, err)
				}
			}
		}(p)
	}
	close(start)
	// Let the storm begin, then close mid-flight.
	for q.Len() == 0 {
		runtime.Gosched()
	}
	q.Close()
	wg.Wait()

	// Every accepted request is still drainable after Close: the closed
	// queue loses nothing that was admitted.
	drained := 0
	for {
		if _, ok := q.PopWait(); !ok {
			break
		}
		drained++
	}
	mu.Lock()
	ok := okCount
	mu.Unlock()
	if int64(drained) != ok {
		t.Fatalf("accepted %d pushes but drained %d", ok, drained)
	}
	// And a post-close push still fails the typed way.
	if err := q.Push(req("/race", 0, 8)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close push: want ErrQueueClosed, got %v", err)
	}
}
