package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	tc := NewTracer(4)
	tr := tc.Start("app1", "write", "/f")
	if tr.TraceID() == 0 {
		t.Fatal("live trace must have a nonzero ID")
	}
	if tc.Active() != 1 {
		t.Fatalf("active = %d, want 1", tc.Active())
	}

	start := time.Now()
	tc.AddHop(tr.TraceID(), "ion", start.Add(time.Millisecond), 128, "")
	tc.AddHop(999999, "ghost", start, 0, "") // unknown ID: dropped
	tr.Finish("fwd", 128, "")

	if tc.Active() != 0 {
		t.Fatalf("active after finish = %d, want 0", tc.Active())
	}
	recent := tc.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(recent))
	}
	got := recent[0]
	if got.App != "app1" || got.Op != "write" || got.Path != "/f" {
		t.Fatalf("trace fields wrong: %+v", got)
	}
	if len(got.Hops) != 2 {
		t.Fatalf("hops = %d, want 2 (ghost hop must be dropped)", len(got.Hops))
	}
	if got.Hops[0].Layer != "fwd" || got.Hops[1].Layer != "ion" {
		t.Fatalf("hops not start-ordered: %+v", got.Hops)
	}
	if got.Total <= 0 {
		t.Fatal("finished trace must have a positive total")
	}

	// A hop arriving after Finish must be dropped, not appended.
	tc.AddHop(got.ID, "late", time.Now(), 0, "")
	if n := len(tc.Recent()[0].Hops); n != 2 {
		t.Fatalf("late hop leaked into finished trace: %d hops", n)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tc := NewTracer(3)
	for i := 0; i < 5; i++ {
		tc.Start("", "op", fmt.Sprintf("/f%d", i)).Finish("fwd", 0, "")
	}
	recent := tc.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	for i, want := range []string{"/f2", "/f3", "/f4"} {
		if recent[i].Path != want {
			t.Fatalf("ring order wrong: %v", recent)
		}
	}
}

// TestTracerConcurrent exercises concurrent Start/AddHop/Finish/Recent
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tc := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tc.Start("app", "write", "/p")
				tc.AddHop(tr.TraceID(), "ion", time.Now(), 64, "")
				tr.Finish("fwd", 64, "")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tc.Recent()
		}
	}()
	wg.Wait()
	<-done
	if tc.Active() != 0 {
		t.Fatalf("leaked active traces: %d", tc.Active())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	sink := NewTestSink()
	sink.Registry.Counter("rpc_calls_total").Add(2)
	sink.Registry.Histogram("rpc_call_latency_seconds", LatencyBuckets()).Observe(0.001)
	tr := sink.Tracer.Start("a", "write", "/x")
	tr.Finish("fwd", 10, "")

	h := Handler(sink.Registry, sink.Tracer)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "rpc_calls_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if err := ParsePrometheus(body); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/recent", nil))
	var traces []TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/trace/recent not JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Path != "/x" || len(traces[0].Hops) != 1 {
		t.Fatalf("unexpected traces: %+v", traces)
	}
}

func TestTestSinkHelpers(t *testing.T) {
	sink := NewTestSink()
	sink.Registry.Counter(`ion_writes_total{node="ion00"}`).Add(3)
	sink.Registry.Counter(`ion_writes_total{node="ion01"}`).Add(4)
	sink.Registry.Counter("fwd_forwarded_ops_total").Add(7)
	if got := sink.CounterSum("ion_writes_total"); got != 7 {
		t.Fatalf("CounterSum = %d, want 7", got)
	}
	if err := sink.ExpectEqual("ion_writes_total", "fwd_forwarded_ops_total"); err != nil {
		t.Fatalf("ExpectEqual: %v", err)
	}
	sink.Registry.Counter("fwd_forwarded_ops_total").Inc()
	if err := sink.ExpectEqual("ion_writes_total", "fwd_forwarded_ops_total"); err == nil {
		t.Fatal("ExpectEqual should report the mismatch")
	}

	tr := sink.Tracer.Start("a", "write", "/y")
	now := time.Now()
	tr.hop("rpc", now.Add(time.Microsecond), 1, "")
	tr.hop("rpc", now.Add(2*time.Microsecond), 1, "")
	tr.hop("pfs", now.Add(3*time.Microsecond), 1, "")
	tr.Finish("fwd", 1, "")
	got, ok := sink.TraceFor("/y")
	if !ok {
		t.Fatal("TraceFor missed the trace")
	}
	layers := HopLayers(got)
	if len(layers) != 3 || layers[0] != "fwd" || layers[1] != "rpc" || layers[2] != "pfs" {
		t.Fatalf("HopLayers = %v", layers)
	}
}

// hop appends a hop that started at start and just finished now, as a
// layer holding the record would.
func (t *Trace) hop(layer string, start time.Time, bytes int64, note string) {
	t.add(t.ID, Hop{Layer: layer, Start: start, Duration: time.Since(start), Bytes: bytes, Note: note})
}

// TestSnapshotHopOrderMatchesStableSort: the sort in Recent must give
// exactly sort.SliceStable's order — by start, reporting order kept among
// equal starts — for hops reported in any order, Finish's own hop (which
// starts at Begin and is reported last) included.
func TestSnapshotHopOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		tc := NewTracer(1)
		tr := tc.Start("app", "write", "/f")
		for i, n := 0, rng.Intn(12); i < n; i++ {
			// Few distinct starts, so ties are common, with Finish's hop too.
			start := tr.Begin.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
			tr.hop(fmt.Sprintf("layer%d", i), start, int64(i), "")
		}
		tr.mu.Lock()
		want := append(append([]Hop(nil), tr.hops...), Hop{Layer: "fwd", Start: tr.Begin})
		tr.mu.Unlock()
		sort.SliceStable(want, func(i, j int) bool { return want[i].Start.Before(want[j].Start) })
		tr.Finish("fwd", 0, "")
		got := tc.Recent()[0].Hops
		if len(got) != len(want) {
			t.Fatalf("round %d: %d hops, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Layer != want[i].Layer {
				t.Fatalf("round %d: hop %d is %s, want %s", round, i, got[i].Layer, want[i].Layer)
			}
		}
	}
}
