package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := New()
	c := reg.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("x_total") != c {
		t.Fatal("same name should return the same counter")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("a").Add(1)
	reg.Gauge("b").Set(2)
	reg.Histogram("c", LatencyBuckets()).Observe(1)
	ran := false
	reg.Update(func() { ran = true })
	if !ran {
		t.Fatal("Update on nil registry must still run fn")
	}
	reg.View(func() {})
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}

	var tc *Tracer
	tr := tc.Start("app", "write", "/p")
	if tr.TraceID() != 0 {
		t.Fatal("nil trace must have ID 0")
	}
	tr.Finish("fwd", 1, "")
	tc.AddHop(17, "ion", time.Now(), 0, "")
	if tc.Recent() != nil || tc.Active() != 0 {
		t.Fatal("nil tracer must be empty")
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound (`le`)
// semantics: a value exactly on a bound lands in that bound's bucket, one
// ulp above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // on the bound: inclusive
		{math.Nextafter(1, 2), 1}, {5, 1}, {10, 1},
		{10.0001, 2}, {100, 2},
		{100.0001, 3}, {1e9, 3}, // +Inf bucket
	}
	for _, c := range cases {
		before := h.counts[c.bucket].Load()
		h.Observe(c.v)
		if got := h.counts[c.bucket].Load(); got != before+1 {
			t.Errorf("Observe(%v): bucket %d not incremented", c.v, c.bucket)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	var wantSum float64
	for _, c := range cases {
		wantSum += c.v
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	reg := New()
	h := reg.Histogram("h", []float64{100, 1, 10})
	h.Observe(2)
	snap := reg.Snapshot().Histograms["h"]
	if snap.Bounds[0] != 1 || snap.Bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", snap.Bounds)
	}
	if snap.Counts[1] != 1 {
		t.Fatalf("Observe(2) should land in (1,10] bucket: %v", snap.Counts)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run with -race) and checks nothing is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	reg := New()
	h := reg.Histogram("lat", LatencyBuckets())
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var bucketTotal int64
	snap := h.snapshot()
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

// TestUpdateViewConsistency: counters incremented together inside Update
// must never be observed torn by View — the invariant a==b holds in every
// view even under heavy concurrent updating.
func TestUpdateViewConsistency(t *testing.T) {
	reg := New()
	a, b := reg.Counter("a_total"), reg.Counter("b_total")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Update(func() {
					a.Inc()
					b.Inc()
				})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		var va, vb int64
		reg.View(func() {
			va, vb = a.Value(), b.Value()
		})
		if va != vb {
			t.Fatalf("torn view: a=%d b=%d", va, vb)
		}
	}
	close(stop)
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["a_total"] != snap.Counters["b_total"] {
		t.Fatalf("torn snapshot: %v", snap.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := New()
	reg.Counter("rpc_calls_total").Add(3)
	reg.Counter(`ion_writes_total{node="ion00"}`).Add(2)
	reg.Counter(`ion_writes_total{node="ion01"}`).Add(5)
	reg.Gauge("agios_queue_depth").Set(1)
	h := reg.Histogram("rpc_call_latency_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rpc_calls_total counter\nrpc_calls_total 3\n",
		`ion_writes_total{node="ion00"} 2`,
		`ion_writes_total{node="ion01"} 5`,
		"# TYPE agios_queue_depth gauge\nagios_queue_depth 1\n",
		"# TYPE rpc_call_latency_seconds histogram\n",
		`rpc_call_latency_seconds_bucket{le="0.001"} 2`,
		`rpc_call_latency_seconds_bucket{le="0.01"} 2`,
		`rpc_call_latency_seconds_bucket{le="+Inf"} 3`,
		"rpc_call_latency_seconds_sum 0.501",
		"rpc_call_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE ion_writes_total"); n != 1 {
		t.Errorf("labeled series must share one TYPE line, got %d", n)
	}
}

func TestPrometheusParses(t *testing.T) {
	reg := New()
	reg.Counter("a_total").Inc()
	reg.Histogram("h_seconds", LatencyBuckets()).Observe(0.002)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if err := ParsePrometheus(sb.String()); err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
}
