// Package agios is the request-scheduling library embedded in the I/O-node
// daemons, playing the role AGIOS plays in GekkoFWD: once a forwarded
// request arrives at an I/O node it is handed to a scheduler that decides
// when (and merged with what) it is dispatched to the PFS.
//
// Five schedulers are provided, mirroring the families AGIOS offers:
//
//   - FIFO: arrival order (the baseline in Ohta et al.);
//   - SJF: shortest job (smallest request) first;
//   - HBRR: handle-based round-robin with a per-handle request quantum and
//     contiguous aggregation (Ohta et al.'s quantum-based scheduler);
//   - AIOLI: per-file offset-ordered service with a byte quantum and
//     contiguous aggregation, after the aIOLi scheduler;
//   - TWINS: time-windowed service per storage target, coordinating access
//     to data servers to avoid contention (Bez et al., PDP 2017).
//
// Schedulers are deliberately not safe for concurrent use; wrap them in a
// Queue, which serializes them and hands out the daemon's dispatch slots.
package agios

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// OpType distinguishes reads from writes.
type OpType int

// Request operations.
const (
	OpWrite OpType = iota
	OpRead
)

func (o OpType) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is one forwarded I/O request awaiting dispatch.
type Request struct {
	Path   string
	Offset int64
	Size   int64
	Op     OpType
	// Data is the write payload (nil for reads), followed by Segs.
	Data []byte
	Segs [][]byte
	// Arrival is stamped by the queue when the request is pushed.
	Arrival time.Time
	// Seq is a monotonically increasing tie-breaker set by the queue.
	Seq uint64
	// Trace is the originating request's telemetry trace ID (0 =
	// untraced); the daemon uses it to attribute scheduling and PFS hops
	// to the right trace record.
	Trace uint64
	// Priority is the request's QoS scheduling tier as carried on the
	// wire (see internal/qos: 3 guaranteed, 2 standard, 1 scavenger,
	// 0 unclassed — treated like standard). Only WFQ consults it; every
	// other scheduler preserves pre-QoS ordering.
	Priority uint8
	// Children holds the original requests when this request is an
	// aggregate produced by a merging scheduler.
	Children []*Request
	// OnComplete, if set, is invoked by whoever executed the request with
	// the execution outcome. Aggregates fan completion out to children.
	OnComplete func(error)

	// parked is the wake-up of a submitter that Queue.Submit could not
	// give a dispatch slot (nil otherwise). It receives exactly one turn.
	parked chan turn
}

// turn is what a parked submitter wakes up to. A non-nil pick means it
// now holds a dispatch slot and must execute pick (its own request, or an
// aggregate headed by it); a nil pick means its request already ran as
// part of another submitter's aggregate, with outcome err.
type turn struct {
	pick *Request
	err  error
}

// End returns the request's exclusive end offset.
func (r *Request) End() int64 { return r.Offset + r.Size }

// Complete reports the execution outcome to whoever waits for it: the
// request's OnComplete (or, for an aggregate that has no own handler,
// every child's Complete), and the request's parked submitter if it has
// one.
func (r *Request) Complete(err error) {
	if r.OnComplete != nil {
		r.OnComplete(err)
	} else {
		for _, c := range r.Children {
			c.Complete(err)
		}
	}
	if r.parked != nil {
		r.parked <- turn{err: err}
	}
}

// head returns the request whose submitter executes r: r itself, or the
// first (lowest-offset) child of an aggregate.
func (r *Request) head() *Request {
	for len(r.Children) > 0 {
		r = r.Children[0]
	}
	return r
}

// Scheduler orders requests. Implementations are single-goroutine; use
// Queue to share one across goroutines.
type Scheduler interface {
	// Name identifies the scheduler ("FIFO", "SJF", "AIOLI", "TWINS").
	Name() string
	// Push enqueues a request.
	Push(r *Request)
	// Pop removes and returns the next request to dispatch. ok is false
	// when the scheduler is empty. The returned request may be an
	// aggregate with Children; the submitter of Children[0] executes it.
	Pop() (r *Request, ok bool)
	// Len reports the number of pending (non-aggregated) requests.
	Len() int
}

// --- FIFO -----------------------------------------------------------------

// FIFO dispatches requests in arrival order.
type FIFO struct {
	q []*Request
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// Push implements Scheduler.
func (f *FIFO) Push(r *Request) { f.q = append(f.q, r) }

// Pop implements Scheduler.
func (f *FIFO) Pop() (*Request, bool) {
	if len(f.q) == 0 {
		return nil, false
	}
	return popFront(&f.q), true
}

// popFront removes and returns the first request of a non-empty queue. A
// queue that drains starts over at the front of its backing array, so a
// closed loop of push, pop, push never grows it.
func popFront(q *[]*Request) *Request {
	s := *q
	r := s[0]
	s[0] = nil
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return r
}

// Len implements Scheduler.
func (f *FIFO) Len() int { return len(f.q) }

// --- SJF ------------------------------------------------------------------

// SJF dispatches the smallest request first (ties by arrival sequence).
type SJF struct {
	h sjfHeap
}

// NewSJF returns an empty shortest-job-first scheduler.
func NewSJF() *SJF { return &SJF{} }

// Name implements Scheduler.
func (s *SJF) Name() string { return "SJF" }

// Push implements Scheduler.
func (s *SJF) Push(r *Request) { heap.Push(&s.h, r) }

// Pop implements Scheduler.
func (s *SJF) Pop() (*Request, bool) {
	if s.h.Len() == 0 {
		return nil, false
	}
	return heap.Pop(&s.h).(*Request), true
}

// Len implements Scheduler.
func (s *SJF) Len() int { return s.h.Len() }

type sjfHeap []*Request

func (h sjfHeap) Len() int { return len(h) }
func (h sjfHeap) Less(i, j int) bool {
	if h[i].Size != h[j].Size {
		return h[i].Size < h[j].Size
	}
	return h[i].Seq < h[j].Seq
}
func (h sjfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sjfHeap) Push(x any)   { *h = append(*h, x.(*Request)) }
func (h *sjfHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// --- AIOLI ----------------------------------------------------------------

// AIOLI serves each file's requests in offset order, aggregating contiguous
// same-operation requests into one dispatch, and switches files after a
// quantum of bytes so no file starves the rest.
type AIOLI struct {
	// Quantum is the byte budget served from one file before moving on;
	// ≤0 selects 8 MiB.
	Quantum int64
	// MaxAggregate bounds the size of a merged dispatch; ≤0 selects the
	// quantum.
	MaxAggregate int64

	fileRing
	spent int64 // bytes served from the current file
	count int
}

// fileRing is the round-robin set of files with pending requests that
// AIOLI and HBRR serve from. A file enters at the end of order with its
// first request and leaves the moment its queue drains, so order and files
// hold only files with work: their size follows the pending requests, not
// the files ever seen, and no turn is spent walking past empty entries.
// The queue of a file that left waits on a free list, backing array and
// all, for the next file to enter — in a closed loop, the same file with
// its next request.
type fileRing struct {
	files map[string]*fileQueue
	order []string     // round-robin order; every entry has pending work
	cur   int          // index into order
	free  []*fileQueue // drained queues, for reuse
}

type fileQueue struct {
	reqs []*Request // kept offset-sorted
}

// insert queues r on its file, admitting the file to the ring if needed.
func (fr *fileRing) insert(r *Request) {
	fq, ok := fr.files[r.Path]
	if !ok {
		if n := len(fr.free); n > 0 {
			fq, fr.free = fr.free[n-1], fr.free[:n-1]
		} else {
			fq = &fileQueue{}
		}
		fr.files[r.Path] = fq
		fr.order = append(fr.order, r.Path)
	}
	fq.insert(r) // keeps offset order, stable for equal offsets
}

// next passes the turn to the following file.
func (fr *fileRing) next() {
	if fr.cur++; fr.cur >= len(fr.order) {
		fr.cur = 0
	}
}

// take removes the head request of the file whose turn it is, merged with
// its contiguous successors up to maxBytes, and reports how many requests
// that took and whether it drained the file — which then leaves the ring,
// the turn passing to the file that followed it.
func (fr *fileRing) take(maxBytes int64) (merged *Request, taken int, drained bool) {
	fq := fr.files[fr.order[fr.cur]]
	merged, taken = mergeHead(fq.reqs, maxBytes)
	if taken < len(fq.reqs) {
		fq.reqs = fq.reqs[taken:]
		return merged, taken, false
	}
	clear(fq.reqs)
	fq.reqs = fq.reqs[:0]
	fr.free = append(fr.free, fq)
	delete(fr.files, fr.order[fr.cur])
	fr.order = append(fr.order[:fr.cur], fr.order[fr.cur+1:]...)
	if fr.cur >= len(fr.order) {
		fr.cur = 0
	}
	return merged, taken, true
}

// NewAIOLI returns an aIOLi-style scheduler with the given quantum.
func NewAIOLI(quantum int64) *AIOLI {
	if quantum <= 0 {
		quantum = 8 << 20
	}
	return &AIOLI{Quantum: quantum, fileRing: fileRing{files: make(map[string]*fileQueue)}}
}

// Name implements Scheduler.
func (a *AIOLI) Name() string { return "AIOLI" }

// Push implements Scheduler.
func (a *AIOLI) Push(r *Request) {
	a.insert(r)
	a.count++
}

// Pop implements Scheduler: it returns the lowest-offset pending request of
// the current file, merged with every contiguous successor of the same
// operation up to MaxAggregate. The turn passes on when the file has used
// up its quantum or drained.
func (a *AIOLI) Pop() (*Request, bool) {
	if a.count == 0 {
		return nil, false
	}
	if a.spent >= a.Quantum {
		a.spent = 0
		a.next()
	}
	maxAgg := a.MaxAggregate
	if maxAgg <= 0 {
		maxAgg = a.Quantum
	}
	merged, taken, drained := a.take(maxAgg)
	a.count -= taken
	a.spent += merged.Size
	if drained {
		a.spent = 0
	}
	return merged, true
}

// Len implements Scheduler.
func (a *AIOLI) Len() int { return a.count }

// mergeHead merges the head request of an offset-sorted slice with every
// directly contiguous successor, up to maxBytes total, returning the merged
// request and how many inputs were consumed. Only writes are merged — a
// merged read would need its result scattered back to the children, which
// the daemon does not do. A single request is returned unwrapped.
func mergeHead(reqs []*Request, maxBytes int64) (*Request, int) {
	head := reqs[0]
	if head.Op != OpWrite {
		return head, 1
	}
	taken := 1
	total := head.Size
	for taken < len(reqs) {
		next := reqs[taken]
		if next.Op != head.Op || next.Offset != reqs[taken-1].End() || total+next.Size > maxBytes {
			break
		}
		total += next.Size
		taken++
	}
	if taken == 1 {
		return head, 1
	}
	merged := &Request{
		Path:    head.Path,
		Offset:  head.Offset,
		Size:    total,
		Op:      head.Op,
		Arrival: head.Arrival,
		Seq:     head.Seq,
	}
	merged.Children = append(merged.Children, reqs[:taken]...)
	if head.Op == OpWrite {
		merged.Data = make([]byte, 0, total)
		for _, r := range reqs[:taken] {
			merged.Data = append(merged.Data, r.Data...)
			for _, seg := range r.Segs {
				merged.Data = append(merged.Data, seg...)
			}
		}
	}
	return merged, taken
}

// --- TWINS ----------------------------------------------------------------

// TWINS serves requests in time windows per storage target: during one
// window only requests destined to the current target are dispatched, so
// the I/O nodes' accesses to each data server are coordinated instead of
// interleaved. Requests for other targets wait for their window.
type TWINS struct {
	// Window is the per-target service window; ≤0 selects 1 ms.
	Window time.Duration
	// Targets is the number of storage targets; ≤0 selects 2.
	Targets int
	// TargetOf maps a request to a target; nil selects offset/stripe
	// modulo Targets with a 1 MiB stripe.
	TargetOf func(*Request) int
	// now is the clock (overridable in tests).
	now func() time.Time

	queues      [][]*Request
	cur         int
	windowStart time.Time
	count       int
}

// NewTWINS returns a TWINS scheduler with the given window and target
// count.
func NewTWINS(window time.Duration, targets int) *TWINS {
	if window <= 0 {
		window = time.Millisecond
	}
	if targets <= 0 {
		targets = 2
	}
	t := &TWINS{Window: window, Targets: targets, now: time.Now}
	t.queues = make([][]*Request, targets)
	return t
}

// Name implements Scheduler.
func (t *TWINS) Name() string { return "TWINS" }

func (t *TWINS) target(r *Request) int {
	if t.TargetOf != nil {
		tg := t.TargetOf(r)
		if tg < 0 || tg >= t.Targets {
			tg = 0
		}
		return tg
	}
	const stripe = 1 << 20
	return int((r.Offset / stripe) % int64(t.Targets))
}

// Push implements Scheduler.
func (t *TWINS) Push(r *Request) {
	tg := t.target(r)
	t.queues[tg] = append(t.queues[tg], r)
	t.count++
}

// Pop implements Scheduler. Within a window only the current target's
// queue is served; when the window expires (or the queue is empty) the
// scheduler rotates to the next target.
func (t *TWINS) Pop() (*Request, bool) {
	if t.count == 0 {
		return nil, false
	}
	now := t.now()
	if t.windowStart.IsZero() {
		t.windowStart = now
	}
	if now.Sub(t.windowStart) >= t.Window {
		t.rotate(now)
	}
	// If the current target has nothing pending, rotate until one does.
	for n := 0; n < t.Targets && len(t.queues[t.cur]) == 0; n++ {
		t.rotate(now)
	}
	if len(t.queues[t.cur]) == 0 {
		return nil, false
	}
	t.count--
	return popFront(&t.queues[t.cur]), true
}

func (t *TWINS) rotate(now time.Time) {
	t.cur = (t.cur + 1) % t.Targets
	t.windowStart = now
}

// Len implements Scheduler.
func (t *TWINS) Len() int { return t.count }

// --- Queue ----------------------------------------------------------------

// Typed queue-admission failures, distinguishable with errors.Is so the
// daemon can answer a full queue with a busy (shed) response and a closed
// queue with a terminal error.
var (
	// ErrQueueClosed reports a Push after Close. A racing Push/Close pair
	// resolves deterministically: either the push wins (the request is
	// enqueued and will be drained) or it observes this error — never a
	// panic, never a silent drop.
	ErrQueueClosed = errors.New("agios: queue closed")
	// ErrQueueFull reports a Push rejected by bounded admission: depth
	// reached the capacity (high watermark) and has not yet drained back
	// to the low watermark.
	ErrQueueFull = errors.New("agios: queue full")
)

// Queue makes a Scheduler safe for concurrent use and owns the daemon's
// dispatch slots: the scheduler decides when a request runs, the goroutine
// that submitted it does the running. A submitter calls Submit; if a slot
// is free it leaves with the scheduler's pick (on an idle queue, its own
// request) and executes it inline, otherwise it parks in Wait. Finish
// pops the scheduler's next pick and hands the finished slot to that
// pick's submitter, so a slot is only ever freed when the queue is empty:
// "slot free ⇒ queue empty" holds under the lock and no wake-up can be
// lost. SetSlots sets the number of slots (default 1).
//
// Push/PopWait drive the scheduler directly, for consumers that bring
// their own goroutines (the bench/ ledger, tests); Close wakes all PopWait
// waiters. No product code drives a queue this way. Drive one queue one
// way or the other, not both: a request taken with PopWait has no
// submitter to hand a slot to.
//
// A queue may be bounded with SetCapacity: admission then follows a
// high/low-watermark hysteresis — once depth reaches the capacity, Push
// fails with ErrQueueFull until dispatch drains depth back to the low
// watermark. The hysteresis keeps a saturated daemon from flapping between
// accept and reject on every pop.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	sched  Scheduler
	seq    uint64
	closed bool
	free   int // dispatch slots nobody holds; > 0 only while the scheduler is empty

	capacity  int  // 0 = unbounded (the historical default)
	lowWater  int  // resume-admission threshold: capacity/2
	saturated bool // above high watermark, not yet drained to lowWater

	// Telemetry handles (nil when uninstrumented; all no-ops then).
	telDepth     *telemetry.Gauge
	telCoalesced *telemetry.Counter
	telSaturated *telemetry.Gauge
	telWait      *telemetry.Histogram
}

// NewQueue wraps sched.
func NewQueue(sched Scheduler) *Queue {
	q := &Queue{sched: sched, free: 1}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// SetSlots sets the number of dispatch slots: at most n picks handed out
// by Submit/Wait are unfinished at any time (n ≤ 0 selects 1). Call
// before the queue is shared.
func (q *Queue) SetSlots(n int) {
	if n <= 0 {
		n = 1
	}
	q.mu.Lock()
	q.free = n
	q.mu.Unlock()
}

// SetCapacity bounds the queue at capacity pending requests, resuming
// admission once depth drains to capacity/2. capacity ≤ 0 removes the
// bound. Call before the queue is shared, or between workloads.
func (q *Queue) SetCapacity(capacity int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if capacity <= 0 {
		q.capacity, q.lowWater, q.saturated = 0, 0, false
		q.telSaturated.Set(0)
		return
	}
	q.capacity, q.lowWater = capacity, capacity/2
}

// Capacity reports the admission bound (0 = unbounded).
func (q *Queue) Capacity() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capacity
}

// Saturated reports whether the queue is currently rejecting pushes
// (depth crossed the capacity and has not drained to the low watermark).
func (q *Queue) Saturated() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.saturated
}

// Instrument attaches queue metrics to reg: pending depth, client
// requests coalesced into aggregates, and queue-wait latency. label is an
// optional Prometheus label set (e.g. `{node="ion00"}`) appended to every
// series name so per-daemon queues stay distinguishable in one registry.
// Call before the queue is shared across goroutines.
func (q *Queue) Instrument(reg *telemetry.Registry, label string) {
	q.telDepth = reg.Gauge("agios_queue_depth" + label)
	q.telCoalesced = reg.Counter("agios_coalesced_total" + label)
	q.telSaturated = reg.Gauge("agios_queue_saturated" + label)
	q.telWait = reg.Histogram("agios_queue_wait_seconds"+label, telemetry.LatencyBuckets())
}

// Push enqueues r, stamping arrival time and sequence. It fails with
// ErrQueueClosed after Close, and with ErrQueueFull while a bounded queue
// is saturated (see SetCapacity).
func (q *Queue) Push(r *Request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admit(r); err != nil {
		return err
	}
	q.cond.Signal()
	return nil
}

// admit runs admission on r and, if it passes, stamps r and gives it to
// the scheduler. Caller holds the lock.
func (q *Queue) admit(r *Request) error {
	if q.closed {
		return ErrQueueClosed
	}
	if q.capacity > 0 {
		if depth := q.sched.Len(); q.saturated || depth >= q.capacity {
			if !q.saturated {
				q.saturated = true
				q.telSaturated.Set(1)
			}
			return ErrQueueFull
		}
	}
	q.seq++
	r.Seq = q.seq
	if r.Arrival.IsZero() {
		r.Arrival = time.Now()
	}
	q.sched.Push(r)
	q.telDepth.Add(1)
	return nil
}

// Submit enqueues r exactly like Push and, in the same critical section,
// takes a free dispatch slot if there is one and pops the scheduler's
// pick. A non-nil pick means the caller holds a slot: it must execute
// pick — r itself, since a free slot implies the queue was empty — and
// then call Finish. A nil pick with a nil error means every slot is busy
// (or the pick was somebody else's): the caller must park in Wait(r).
func (q *Queue) Submit(r *Request) (pick *Request, err error) {
	q.mu.Lock()
	if err := q.admit(r); err != nil {
		q.mu.Unlock()
		return nil, err
	}
	if q.free > 0 {
		if p, ok := q.sched.Pop(); ok {
			q.free--
			q.recordPop(p)
			pick = p
		}
	}
	mine := pick != nil && pick.head() == r
	if !mine {
		r.parked = make(chan turn, 1)
	}
	q.mu.Unlock()
	if mine {
		return pick, nil
	}
	if pick != nil {
		// Only a scheduler that withheld a pending request while a slot
		// was freed gets here; the slot goes to the pick's submitter.
		pick.head().parked <- turn{pick: pick}
	}
	return nil, nil
}

// Wait parks the submitter of r, which Submit gave no slot, until its
// turn. A non-nil pick means the caller now holds a slot and must execute
// pick (r, or an aggregate headed by r) and then call Finish; a nil pick
// means r ran as part of another submitter's aggregate with outcome err.
func (q *Queue) Wait(r *Request) (pick *Request, err error) {
	t := <-r.parked
	if t.pick != nil {
		// From here on the caller is r's executor, not a waiter: its own
		// Finish must not send it a second turn.
		r.parked = nil
	}
	return t.pick, t.err
}

// Finish ends the dispatch of pick with outcome err: it completes pick
// (waking the parked submitters of an aggregate's other children), then
// pops the scheduler's next pick and hands the slot to that pick's
// submitter — or frees the slot if the queue is empty. The caller never
// executes anybody else's request after its own.
func (q *Queue) Finish(pick *Request, err error) {
	pick.Complete(err)
	q.mu.Lock()
	next, ok := q.sched.Pop()
	if ok {
		q.recordPop(next)
	} else {
		q.free++
	}
	q.mu.Unlock()
	if ok {
		next.head().parked <- turn{pick: next}
	}
}

// recordPop maintains queue metrics and admission state for one popped
// (possibly aggregate) request. Caller holds the lock.
func (q *Queue) recordPop(r *Request) {
	if n := int64(len(r.Children)); n > 0 {
		q.telDepth.Add(-n)
		q.telCoalesced.Add(n)
	} else {
		q.telDepth.Add(-1)
	}
	if q.saturated && q.sched.Len() <= q.lowWater {
		q.saturated = false
		q.telSaturated.Set(0)
	}
	if q.telWait != nil && !r.Arrival.IsZero() {
		q.telWait.ObserveDuration(time.Since(r.Arrival))
	}
}

// PopWait blocks until a request is available or the queue is closed; ok
// is false only when closed and drained.
func (q *Queue) PopWait() (*Request, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if r, ok := q.sched.Pop(); ok {
			q.recordPop(r)
			return r, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// Len reports pending requests.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sched.Len()
}

// Close marks the queue closed and wakes all PopWait waiters. Pending
// requests still run: parked submitters keep being handed slots, and
// PopWait can still drain.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// NewByName constructs a scheduler from its AGIOS-style name. Supported:
// "FIFO", "SJF", "AIOLI", "TWINS", "HBRR", "WFQ".
func NewByName(name string) (Scheduler, error) {
	switch name {
	case "FIFO", "fifo", "":
		return NewFIFO(), nil
	case "SJF", "sjf":
		return NewSJF(), nil
	case "AIOLI", "aioli":
		return NewAIOLI(0), nil
	case "TWINS", "twins":
		return NewTWINS(0, 0), nil
	case "HBRR", "hbrr":
		return NewHBRR(0), nil
	case "WFQ", "wfq":
		return NewWFQ(0), nil
	default:
		return nil, fmt.Errorf("agios: unknown scheduler %q", name)
	}
}
