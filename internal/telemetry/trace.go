package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Hop is one layer's contribution to a request trace: where the request
// was, when, for how long, and how many payload bytes crossed the layer.
type Hop struct {
	// Layer names the stack layer ("fwd", "rpc", "ion", "agios", "pfs").
	Layer string `json:"layer"`
	// Start is when the layer began handling the request.
	Start time.Time `json:"start"`
	// Duration is how long the layer held it.
	Duration time.Duration `json:"duration_ns"`
	// Bytes is the payload volume this hop moved (0 for metadata).
	Bytes int64 `json:"bytes"`
	// Note carries layer detail (operation names, merge counts).
	Note string `json:"note,omitempty"`
}

// Trace is one forwarded request's record. The ID travels with the request
// across the rpc wire, so server-side layers append hops to the same
// record the client started (within one process; a distributed deployment
// would join on the ID instead).
type Trace struct {
	ID    uint64
	App   string
	Op    string
	Path  string
	Begin time.Time

	tc *Tracer

	mu   sync.Mutex
	end  time.Time
	hops []Hop
	// hopStore inlines storage for the first hops so a typical
	// single-chunk trace (fwd, rpc, ion, agios, pfs) records without any
	// slice regrowth: on the forwarding hot path the stack already
	// allocates large transfer buffers, and every extra small allocation
	// there risks a GC-assist park worth far more than the alloc itself.
	hopStore [8]Hop
}

// TraceID returns the wire identifier (0 on a nil trace, meaning
// "untraced").
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// Hop appends a hop that started at start and just finished now. No-op on
// a nil trace.
func (t *Trace) Hop(layer string, start time.Time, bytes int64, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hops = append(t.hops, Hop{
		Layer: layer, Start: start, Duration: time.Since(start),
		Bytes: bytes, Note: note,
	})
	t.mu.Unlock()
}

// Finish closes the trace and retires it to the tracer's ring buffer.
// No-op on a nil trace.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = time.Now()
	t.mu.Unlock()
	t.tc.finish(t)
}

// TraceSnapshot is an immutable copy of a finished (or in-flight) trace,
// with hops sorted by start time — the order the request actually moved
// through the stack, regardless of which layer reported first.
type TraceSnapshot struct {
	ID    uint64        `json:"id"`
	App   string        `json:"app,omitempty"`
	Op    string        `json:"op"`
	Path  string        `json:"path"`
	Begin time.Time     `json:"begin"`
	End   time.Time     `json:"end"`
	Hops  []Hop         `json:"hops"`
	Total time.Duration `json:"total_ns"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		ID: t.ID, App: t.App, Op: t.Op, Path: t.Path,
		Begin: t.Begin, End: t.end,
		Hops: append([]Hop(nil), t.hops...),
	}
	if !s.End.IsZero() {
		s.Total = s.End.Sub(s.Begin)
	}
	// This runs at every Finish on a handful of hops: the generic stable
	// sort is an in-place insertion sort at this size and, unlike
	// sort.SliceStable, allocates no closure and no reflection-built
	// swapper.
	slices.SortStableFunc(s.Hops, func(a, b Hop) int { return a.Start.Compare(b.Start) })
	return s
}

// Tracer mints request traces and retains the most recent finished ones in
// a fixed-size ring buffer. Finished traces are stored as compact
// snapshots, not live *Trace objects: the live structs carry a mutex and
// inline hop storage sized for recording, and keeping hundreds of them
// reachable measurably inflates GC mark work on allocation-heavy
// forwarding paths. A nil *Tracer is a valid no-op (Start returns a nil
// *Trace whose methods no-op and whose TraceID is 0).
type Tracer struct {
	next atomic.Uint64

	mu     sync.Mutex
	active map[uint64]*Trace
	ring   []TraceSnapshot
	pos    int
}

// DefaultTraceCapacity is the ring size used when NewTracer is given ≤0.
const DefaultTraceCapacity = 64

// NewTracer returns a tracer retaining the last capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{active: make(map[uint64]*Trace), ring: make([]TraceSnapshot, 0, capacity)}
}

// Start opens a trace for one request. Returns nil on a nil tracer.
func (tc *Tracer) Start(app, op, path string) *Trace {
	if tc == nil {
		return nil
	}
	t := &Trace{
		ID: tc.next.Add(1), App: app, Op: op, Path: path,
		Begin: time.Now(), tc: tc,
	}
	t.hops = t.hopStore[:0]
	tc.mu.Lock()
	tc.active[t.ID] = t
	tc.mu.Unlock()
	return t
}

// AddHop appends a hop to the active trace with the given ID. Unknown or
// zero IDs (untraced requests, or traces already finished) are dropped
// silently — a server receiving a foreign trace ID must not fail the
// request over observability. No-op on a nil tracer.
func (tc *Tracer) AddHop(id uint64, layer string, start time.Time, bytes int64, note string) {
	if tc == nil || id == 0 {
		return
	}
	tc.mu.Lock()
	t := tc.active[id]
	tc.mu.Unlock()
	t.Hop(layer, start, bytes, note)
}

// finish retires t from the active set into the ring as a snapshot,
// dropping the last reference to the live trace.
func (tc *Tracer) finish(t *Trace) {
	s := t.snapshot()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.active, t.ID)
	if len(tc.ring) < cap(tc.ring) {
		tc.ring = append(tc.ring, s)
		return
	}
	tc.ring[tc.pos] = s
	tc.pos = (tc.pos + 1) % cap(tc.ring)
}

// Recent returns snapshots of the retained finished traces, oldest first.
// Empty on a nil tracer.
func (tc *Tracer) Recent() []TraceSnapshot {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(tc.ring))
	out = append(out, tc.ring[tc.pos:]...)
	out = append(out, tc.ring[:tc.pos]...)
	return out
}

// Active reports how many traces are open (0 on nil).
func (tc *Tracer) Active() int {
	if tc == nil {
		return 0
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.active)
}
