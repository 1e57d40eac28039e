package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestTraceLifecycleAllocationPin: a recorded trace — Start, four server
// hops by ID, the client's own hop, Finish into the ring — allocates
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
			tr.Hop("fwd", start, 64, "chunks=1")
			tr.Finish()
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
	old.Finish()
	tr := tc.Start("app", "stat", "/new")
	if tr != old {
		t.Fatal("the finished record was not reused by the next Start")
	}
	tr.Hop("fwd", time.Now(), 1, "")
	tc.AddHop(oldID, "rpc", time.Now(), 1, "late")
	tr.add(oldID, Hop{Layer: "rpc", Start: time.Now(), Note: "late"})
	tr.mu.Lock()
	n := len(tr.hops)
	tr.mu.Unlock()
	if n != 1 {
		t.Fatalf("the newer trace holds %d hops, want 1: a late hop for trace %d landed in it", n, oldID)
	}
	tr.Finish()
	recent := tc.Recent()
	if len(recent) != 2 || len(recent[0].Hops) != 0 || len(recent[1].Hops) != 1 || recent[1].Hops[0].Layer != "fwd" {
		t.Fatalf("ring = %+v, want /old with no hops, then /new with its fwd hop", recent)
	}
}

// TestInFlightTraceOutlivesRing: only finished traces rotate through the
// ring; an open trace keeps taking hops however many newer ones finish.
func TestInFlightTraceOutlivesRing(t *testing.T) {
	tc := NewTracer(1)
	long := tc.Start("app", "write", "/long")
	for i := 0; i < 10; i++ {
		tc.Start("app", "stat", "/short").Finish()
	}
	tc.AddHop(long.TraceID(), "ion", time.Now(), 1, "")
	long.Finish()
	recent := tc.Recent()
	if len(recent) != 1 || recent[0].Path != "/long" || len(recent[0].Hops) != 1 {
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
		if err == nil && (n >= len(paths) || s.Path != paths[n]) {
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
							tr.Hop("fwd", time.Now(), int64(id), "")
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
					tr.Finish()
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
