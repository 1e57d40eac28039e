package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestTraceLifecycleAllocationPin: a recorded trace — Start, four server
// hops by ID, Finish with the client's own hop into the ring — allocates
// nothing once the tracer has a record to recycle. A trace longer than the
// inline 8 hops grows its record's and each ring entry's storage once, so
// after one lap around the ring it allocates nothing either.
func TestTraceLifecycleAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tc := NewTracer(0)
	start := time.Now()
	layers := [...]string{"rpc", "ion", "agios", "pfs"}
	lifecycle := func(hops int) func() {
		return func() {
			tr := tc.Start("app", "write", "/f")
			id := tr.TraceID()
			for i := 0; i < hops-1; i++ {
				tc.AddHop(id, layers[i%len(layers)], start, 64, "note")
			}
			tr.Finish("fwd", 64, "chunks=1")
		}
	}
	if got := testing.AllocsPerRun(200, lifecycle(5)); got != 0 {
		t.Errorf("5-hop trace: %.0f allocs/op, budget 0", got)
	}
	long := lifecycle(20)
	for i := 0; i < DefaultTraceCapacity; i++ {
		long()
	}
	if got := testing.AllocsPerRun(200, long); got != 0 {
		t.Errorf("20-hop trace after one lap: %.0f allocs/op, budget 0", got)
	}
	if n := tc.Active(); n != 0 {
		t.Fatalf("active = %d after every trace finished", n)
	}
}

// TestLateHopSkipsRecycledRecord: a hop for a finished trace lands nowhere,
// even when its record already backs the next trace — whether the hop
// looks the ID up after Finish, or found the record before Finish and
// checks it only after the record was recycled.
func TestLateHopSkipsRecycledRecord(t *testing.T) {
	tc := NewTracer(4)
	old := tc.Start("app", "write", "/old")
	oldID := old.TraceID()
	old.Finish("fwd", 1, "")
	tr := tc.Start("app", "stat", "/new")
	if tr != old {
		t.Fatal("the finished record was not reused by the next Start")
	}
	tr.hop("ion", time.Now(), 1, "")
	tc.AddHop(oldID, "rpc", time.Now(), 1, "late")
	tr.add(oldID, Hop{Layer: "rpc", Start: time.Now(), Note: "late"})
	tr.mu.Lock()
	n := len(tr.hops)
	tr.mu.Unlock()
	if n != 1 {
		t.Fatalf("the newer trace holds %d hops, want 1: a late hop for trace %d landed in it", n, oldID)
	}
	tr.Finish("fwd", 1, "")
	recent := tc.Recent()
	if len(recent) != 2 || len(recent[0].Hops) != 1 || len(recent[1].Hops) != 2 || recent[1].Hops[1].Layer != "ion" {
		t.Fatalf("ring = %+v, want /old with its fwd hop, then /new with its fwd and ion hops", recent)
	}
}

// TestInFlightTraceOutlivesRing: only finished traces rotate through the
// ring; an open trace keeps taking hops however many newer ones finish.
func TestInFlightTraceOutlivesRing(t *testing.T) {
	tc := NewTracer(1)
	long := tc.Start("app", "write", "/long")
	for i := 0; i < 10; i++ {
		tc.Start("app", "stat", "/short").Finish("fwd", 0, "")
	}
	tc.AddHop(long.TraceID(), "ion", time.Now(), 1, "")
	long.Finish("fwd", 1, "")
	recent := tc.Recent()
	if len(recent) != 1 || recent[0].Path != "/long" || len(recent[0].Hops) != 2 || recent[0].Hops[1].Layer != "ion" {
		t.Fatalf("ring = %+v, want /long with its ion hop", recent)
	}
}

// TestTracerConcurrentManyInFlight runs more traces in flight at once than
// the ring holds, under -race, while a late hopper keeps sending hops for
// whichever trace is being finished right now — so some find a record that
// is recycled before they check it. Every trace keeps exactly the hops it
// recorded before Finish; every hop carries its trace's ID as Bytes, so a
// late hop that lands on the record's next trace shows; Active ends at 0.
func TestTracerConcurrentManyInFlight(t *testing.T) {
	const (
		workers  = 8
		inFlight = 4 // per worker: 32 open traces against a ring of 4
		rounds   = 50
		maxHops  = 12 // past the 8 inline hops
	)
	tc := NewTracer(4)
	var paths [maxHops + 1]string
	for k := range paths {
		paths[k] = fmt.Sprintf("/hops%d", k)
	}
	// own counts the hops trace id recorded itself; a late hop that beat
	// Finish is legitimately there and is not counted.
	own := func(id uint64, hops []Hop) (int, error) {
		n := 0
		for _, h := range hops {
			if uint64(h.Bytes) != id {
				return 0, fmt.Errorf("trace %d holds a hop of trace %d (%s)", id, h.Bytes, h.Layer)
			}
			if h.Layer != "late" {
				n++
			}
		}
		return n, nil
	}
	check := func(s TraceSnapshot) error {
		n, err := own(s.ID, s.Hops)
		n-- // Finish's own hop
		if err == nil && (n < 0 || n >= len(paths) || s.Path != paths[n]) {
			err = fmt.Errorf("trace %d (%s) retained %d of its hops", s.ID, s.Path, n)
		}
		return err
	}

	var closing atomic.Uint64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the late hopper
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if id := closing.Load(); id != 0 {
				tc.AddHop(id, "late", time.Now(), int64(id), "")
			}
			// Spinning without a yield starves the workers of the CPU
			// they need to finish, under -race above all.
			runtime.Gosched()
		}
	}()
	errs := make(chan error, workers+1)
	go func() { // a reader of the ring
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range tc.Recent() {
				if err := check(s); err != nil {
					errs <- err
					return
				}
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var trs [inFlight]*Trace
				var want [inFlight]int
				for i := range trs {
					want[i] = 1 + (w+r+i)%maxHops
					trs[i] = tc.Start("app", "write", paths[want[i]])
				}
				// Interleave the hops of all open traces.
				for h := 0; h < maxHops; h++ {
					for i, tr := range trs {
						if h >= want[i] {
							continue
						}
						id := tr.TraceID()
						if h%2 == 0 {
							tr.hop("fwd", time.Now(), int64(id), "")
						} else {
							tc.AddHop(id, "ion", time.Now(), int64(id), "")
						}
					}
				}
				for i, tr := range trs {
					id := tr.TraceID()
					closing.Store(id)
					tr.mu.Lock()
					n, err := own(id, tr.hops)
					tr.mu.Unlock()
					if err == nil && n != want[i] {
						err = fmt.Errorf("trace %d holds %d of its hops before Finish, recorded %d", id, n, want[i])
					}
					if err != nil {
						errs <- err
						return
					}
					tr.Finish("fwd", int64(id), "")
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, s := range tc.Recent() {
		if err := check(s); err != nil {
			t.Error(err)
		}
	}
	if n := tc.Active(); n != 0 {
		t.Fatalf("leaked active traces: %d", n)
	}
}

// TestTraceSlotCollisions keeps more traces in flight than the in-flight
// table has slots, so IDs k and k+traceSlots are open together and the
// later ones wait in the spill list. Every hop by ID lands on its own
// record, Active counts every open trace, and a hop for a finished ID is
// dropped once its slot holds a newer trace — here the very record the
// finished trace left behind.
func TestTraceSlotCollisions(t *testing.T) {
	const inFlight = 2*traceSlots + 3
	tc := NewTracer(4)
	trs := make([]*Trace, inFlight)
	for i := range trs {
		trs[i] = tc.Start("app", "write", fmt.Sprintf("/f%d", i))
	}
	if n := tc.Active(); n != inFlight {
		t.Fatalf("active = %d, want %d", n, inFlight)
	}
	if n := tc.spilled.Load(); n != inFlight-traceSlots {
		t.Fatalf("spilled = %d, want %d: IDs past the first %d share a slot with an open trace", n, inFlight-traceSlots, traceSlots)
	}
	// Each hop carries its trace's ID as Bytes.
	hopAll := func() {
		for _, tr := range trs {
			if tr != nil {
				tc.AddHop(tr.TraceID(), "ion", time.Now(), int64(tr.TraceID()), "")
			}
		}
	}
	holds := func(tr *Trace, want int) {
		t.Helper()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if len(tr.hops) != want {
			t.Fatalf("trace %d holds %d hops, want %d", tr.ID, len(tr.hops), want)
		}
		for _, h := range tr.hops {
			if uint64(h.Bytes) != tr.ID {
				t.Fatalf("trace %d holds a hop of trace %d", tr.ID, h.Bytes)
			}
		}
	}
	hopAll()
	hopAll()
	for _, tr := range trs {
		holds(tr, 2)
	}

	// The next ID maps to slot k, so finishing trace k frees that slot
	// and its record for the next Start. Trace k+traceSlots stays open in
	// the spill list.
	k := uint64(inFlight+1) % traceSlots
	old := trs[k-1]
	if old.TraceID() != k {
		t.Fatalf("trace %d has ID %d", k-1, old.TraceID())
	}
	old.Finish("fwd", int64(k), "")
	trs[k-1] = nil
	newer := tc.Start("app", "write", "/newer")
	if newer != old || tc.slots[k].Load() != newer || newer.TraceID()%traceSlots != k {
		t.Fatalf("trace %d did not take slot %d with the record trace %d left", newer.TraceID(), k, k)
	}
	tc.AddHop(k, "late", time.Now(), int64(k), "")
	holds(newer, 0)
	hopAll()
	for _, tr := range trs {
		if tr != nil {
			holds(tr, 3)
		}
	}
	if n := tc.Active(); n != inFlight {
		t.Fatalf("active = %d, want %d", n, inFlight)
	}

	newer.Finish("fwd", int64(newer.TraceID()), "")
	for _, tr := range trs {
		if tr != nil {
			tr.Finish("fwd", int64(tr.TraceID()), "")
		}
	}
	if n, s := tc.Active(), tc.spilled.Load(); n != 0 || s != 0 {
		t.Fatalf("active = %d, spilled = %d after every trace finished", n, s)
	}
	for _, s := range tc.Recent() {
		if len(s.Hops) != 4 {
			t.Fatalf("trace %d retained %d hops, want 4", s.ID, len(s.Hops))
		}
	}
}
