package telemetry

import (
	"slices"
	"sync"
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
//
// Records are recycled: Finish hands the record back to its tracer, and a
// later Start reuses it, hop storage included, for a new ID. The holder of
// a *Trace must not touch it after Finish. Hops that arrive by ID after
// Finish — a server hop or a losing hedge backup's rpc hop — are checked
// against the record's current ID and dropped.
type Trace struct {
	ID    uint64
	App   string
	Op    string
	Path  string
	Begin time.Time

	tc *Tracer

	mu   sync.Mutex
	live bool // between Start and Finish; only then does the record take hops
	hops []Hop
	// hopStore inlines storage for the first hops so a typical
	// single-chunk trace (fwd, rpc, ion, agios, pfs) records without any
	// slice growth. A longer trace grows hops once; the record keeps the
	// larger array across reuse.
	hopStore [inlineHops]Hop
}

// inlineHops is the hop capacity a record and a ring entry start with.
const inlineHops = 8

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
	t.add(t.ID, Hop{Layer: layer, Start: start, Duration: time.Since(start), Bytes: bytes, Note: note})
}

// add appends h if the record still belongs to trace id: open, and not
// recycled for a newer trace since the caller found it.
func (t *Trace) add(id uint64, h Hop) {
	t.mu.Lock()
	if t.live && t.ID == id {
		t.hops = append(t.hops, h)
	}
	t.mu.Unlock()
}

// Finish closes the trace, retires its hops to the tracer's ring buffer
// and recycles the record. No-op on a nil trace. The holder calls it
// exactly once: the record may back a newer trace afterwards, and a second
// Finish would close that one.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	live := t.live
	t.live = false
	t.mu.Unlock()
	if live {
		t.tc.retire(t, end)
	}
}

// TraceSnapshot is an immutable copy of a finished trace, with hops sorted
// by start time — the order the request actually moved through the stack,
// regardless of which layer reported first.
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

// openTrace is one in-flight index entry. The ID is kept beside the
// record so a lookup never reads a record another goroutine may be
// recycling.
type openTrace struct {
	id uint64
	t  *Trace
}

// Tracer mints request traces and retains the most recent finished ones in
// a fixed-size ring buffer. A traced request allocates nothing in steady
// state:
//   - Start takes a record from a free list that Finish refills, so the
//     tracer holds no more records than the most traces ever in flight;
//   - hops find their trace by ID in the in-flight index, and append under
//     the record's own lock;
//   - the ring's entries own their hop storage, preallocated for 8 hops
//     each: Finish copies a trace's hops into the entry it overwrites and
//     sorts them there, and only Recent copies them out.
//
// In-flight traces are never evicted; only finished ones rotate through the
// ring. A nil *Tracer is a valid no-op (Start returns a nil *Trace whose
// methods no-op and whose TraceID is 0).
type Tracer struct {
	mu       sync.Mutex
	next     uint64      // the last ID minted
	open     []openTrace // in-flight traces, in no order
	free     []*Trace    // finished records, ready for reuse
	ring     []TraceSnapshot
	pos      int // the entry the next finished trace overwrites
	retained int // entries holding a trace, up to len(ring)
}

// DefaultTraceCapacity is the ring size used when NewTracer is given ≤0.
const DefaultTraceCapacity = 64

// NewTracer returns a tracer retaining the last capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	tc := &Tracer{ring: make([]TraceSnapshot, capacity)}
	hops := make([]Hop, capacity*inlineHops)
	for i := range tc.ring {
		tc.ring[i].Hops = hops[i*inlineHops : i*inlineHops : (i+1)*inlineHops]
	}
	return tc
}

// Start opens a trace for one request. Returns nil on a nil tracer.
func (tc *Tracer) Start(app, op, path string) *Trace {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	var t *Trace
	if n := len(tc.free); n > 0 {
		t, tc.free[n-1] = tc.free[n-1], nil
		tc.free = tc.free[:n-1]
	} else {
		t = &Trace{tc: tc}
		t.hops = t.hopStore[:0]
	}
	tc.next++
	id := tc.next
	tc.open = append(tc.open, openTrace{id, t})
	tc.mu.Unlock()
	begin := time.Now()
	// Under t.mu: an AddHop that found this record under its previous ID
	// may be about to check it.
	t.mu.Lock()
	t.ID, t.App, t.Op, t.Path, t.Begin = id, app, op, path, begin
	t.hops = t.hops[:0]
	t.live = true
	t.mu.Unlock()
	return t
}

// AddHop appends a hop that started at start and just finished now to the
// active trace with the given ID. Unknown or zero IDs (untraced requests,
// or traces already finished) are dropped silently — a server receiving a
// foreign trace ID must not fail the request over observability. No-op on
// a nil tracer.
func (tc *Tracer) AddHop(id uint64, layer string, start time.Time, bytes int64, note string) {
	if tc == nil || id == 0 {
		return
	}
	tc.RecordHop(id, Hop{Layer: layer, Start: start, Duration: time.Since(start), Bytes: bytes, Note: note})
}

// RecordHop is AddHop for a hop the caller already timed, so a layer that
// measures a duration for its own histogram spends one clock read on both.
func (tc *Tracer) RecordHop(id uint64, h Hop) {
	if tc == nil || id == 0 {
		return
	}
	var t *Trace
	tc.mu.Lock()
	for _, o := range tc.open {
		if o.id == id {
			t = o.t
			break
		}
	}
	tc.mu.Unlock()
	if t != nil {
		t.add(id, h)
	}
}

// retire takes the closed trace t out of the in-flight index, copies it
// into the ring entry it overwrites and returns the record to the free
// list. No hop can land on t any more (it is closed), so its hops are read
// without t.mu.
func (tc *Tracer) retire(t *Trace, end time.Time) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for i, o := range tc.open {
		if o.t == t {
			last := len(tc.open) - 1
			tc.open[i] = tc.open[last]
			tc.open[last] = openTrace{}
			tc.open = tc.open[:last]
			break
		}
	}
	s := &tc.ring[tc.pos]
	*s = TraceSnapshot{
		ID: t.ID, App: t.App, Op: t.Op, Path: t.Path,
		Begin: t.Begin, End: end, Total: end.Sub(t.Begin),
		Hops: append(s.Hops[:0], t.hops...),
	}
	// The generic stable sort is an in-place insertion sort at this size
	// and, unlike sort.SliceStable, allocates no closure and no
	// reflection-built swapper.
	slices.SortStableFunc(s.Hops, func(a, b Hop) int { return a.Start.Compare(b.Start) })
	tc.pos = (tc.pos + 1) % len(tc.ring)
	tc.retained = min(tc.retained+1, len(tc.ring))
	tc.free = append(tc.free, t)
}

// Recent returns copies of the retained finished traces, oldest first.
// Empty on a nil tracer.
func (tc *Tracer) Recent() []TraceSnapshot {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]TraceSnapshot, tc.retained)
	oldest := tc.pos - tc.retained + len(tc.ring)
	for i := range out {
		out[i] = tc.ring[(oldest+i)%len(tc.ring)]
		out[i].Hops = append([]Hop(nil), out[i].Hops...)
	}
	return out
}

// Active reports how many traces are open (0 on nil).
func (tc *Tracer) Active() int {
	if tc == nil {
		return 0
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.open)
}
