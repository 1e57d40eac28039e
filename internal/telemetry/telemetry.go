// Package telemetry is the monitoring plane of the reproduction: a
// dependency-free, concurrency-safe metrics registry plus a lightweight
// per-request trace context threaded through the forwarding stack
// (fwd → rpc → ion → agios → pfs).
//
// The paper's arbitration loop runs on observed behaviour — §3.1 builds
// per-application bandwidth profiles from metrics collected on the I/O
// nodes and the MCKP arbiter re-decides from them — so the stack needs a
// uniform way to observe itself before any policy can be trusted at scale.
// This package provides:
//
//   - Counter, Gauge: atomic scalar metrics;
//   - Histogram: fixed-bucket latency/size distributions;
//   - Registry: a named collection with consistent snapshots and
//     Prometheus-style text exposition;
//   - Tracer/Trace: per-request records with one hop per layer
//     (see trace.go);
//   - TestSink: assertion helpers for cross-layer invariants in
//     integration tests (see testsink.go).
//
// Every type is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Tracer, or *Trace are no-ops, so instrumented code never
// branches on "telemetry enabled?" — an uninstrumented component simply
// holds nil handles, and the hot path pays only a nil check.
//
// Consistency: metrics that are logically updated together (e.g. an I/O
// node's request count and its byte count) can be incremented inside
// Registry.Update, and readers using Registry.View (or Snapshot) are
// guaranteed never to observe a torn set — the update group either
// happened entirely or not at all from the reader's point of view.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depths, running jobs).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (negative to decrease). No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. Metric names follow the
// Prometheus convention (`layer_quantity_unit_total`) and may carry a
// label set in curly braces, which becomes part of the series identity:
//
//	reg.Counter(`ion_writes_total{node="ion00"}`)
//
// The zero value is not usable; construct with New. A nil *Registry is a
// valid no-op sink: every accessor returns a nil metric handle.
type Registry struct {
	// gate serializes consistent update groups (Update, RLock) against
	// consistent readers (View/Snapshot, Lock). Plain single-metric
	// operations bypass it entirely and stay purely atomic.
	gate sync.RWMutex

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// seriesPerBase counts distinct labeled series per metric family
	// (base name), across all metric kinds, enforcing
	// DefaultMaxSeriesPerBase.
	seriesPerBase map[string]int
}

// DefaultMaxSeriesPerBase bounds how many distinct label sets one metric
// family (base name) may create in a registry. Per-tenant labels (QoS app
// IDs, ION addresses) are unbounded inputs; without a cap a misbehaving
// caller could grow the registry — and every Snapshot — without limit.
// Series past the cap coalesce into `base{overflow="true"}` so the total
// is still correct and the overflow is itself observable.
const DefaultMaxSeriesPerBase = 256

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		seriesPerBase: make(map[string]int),
	}
}

// admit applies the cardinality cap to a new labeled series name,
// returning either the name itself (and counting it against its family)
// or the family's overflow series. Unlabeled series are never coalesced:
// they are fixed in the code, not driven by runtime input. Caller holds
// r.mu and has already checked the series does not exist.
func (r *Registry) admit(name string) string {
	base := baseName(name)
	if base == name {
		return name
	}
	if r.seriesPerBase[base] >= DefaultMaxSeriesPerBase {
		return base + `{overflow="true"}`
	}
	r.seriesPerBase[base]++
	return name
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		name = r.admit(name)
		if c, ok = r.counters[name]; !ok {
			c = &Counter{}
			r.counters[name] = c
		}
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		name = r.admit(name)
		if g, ok = r.gauges[name]; !ok {
			g = &Gauge{}
			r.gauges[name] = g
		}
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds are ignored for an existing
// histogram). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		name = r.admit(name)
		if h, ok = r.histograms[name]; !ok {
			h = newHistogram(bounds)
			r.histograms[name] = h
		}
	}
	return h
}

// Update runs fn as one consistent update group: a concurrent View or
// Snapshot observes either every mutation fn makes or none of them.
// Multiple Update groups run concurrently with each other. On a nil
// registry fn still runs (its metric handles are no-ops anyway).
func (r *Registry) Update(fn func()) {
	if r == nil {
		fn()
		return
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	fn()
}

// View runs fn while no Update group is in flight, so values read inside
// fn form a consistent cut across every metric maintained via Update. On a
// nil registry fn still runs.
func (r *Registry) View(fn func()) {
	if r == nil {
		fn()
		return
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	fn()
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot returns a consistent copy of all metrics (no Update group is
// half-applied in it). On a nil registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hists[n] = h
	}
	r.mu.Unlock()

	r.gate.Lock()
	defer r.gate.Unlock()
	for n, c := range counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		snap.Histograms[n] = h.snapshot()
	}
	return snap
}

// baseName strips a label set from a series name: `x_total{a="b"}` → x_total.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sortedKeys returns map keys in lexical order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
