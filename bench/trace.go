package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ion"
	"repro/internal/pfs"
)

// Tracing lives entirely in bench/: spans are recorded around calls into
// each layer through the seams livestack.Config exposes, kept in memory,
// and analysed (or dumped) after the run. With one closed-loop generator
// the fwd.op spans never overlap, so time containment alone gives every
// span its parent.

// Span names, in layer order.
const (
	spanOp      = "fwd.op"       // generator: around the fwd.Client call
	spanConn    = "ion.conn"     // daemon conn: request frame complete → response written
	spanPFS     = "pfs.call"     // daemon backend: around the pfs.Store call
	spanArbiter = "arbiter.call" // inside JobStarted/JobFinished
	spanBus     = "bus.deliver"  // call returned → bench-owned subscriber received
	spanApply   = "client.apply" // call returned → last client applied
	spanNoIndex = -1
)

// span is one recorded interval; times are nanoseconds since the
// recorder's epoch.
type span struct {
	name       string
	start, end int64
	ion        int // daemon index for ion.conn / pfs.call, else spanNoIndex
	// Filled in by link():
	id, parent, op int
}

// recorder collects spans from many goroutines. Each producer appends to
// its own shard under that shard's lock (uncontended in practice: one
// shard per daemon conn, per daemon backend, and one for the generator).
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	shards []*shard

	connsOpened atomic.Int64
	wireBytes   atomic.Int64 // bytes crossing daemon conns, both directions
}

type shard struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) newShard() *shard {
	s := &shard{}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

func (s *shard) add(name string, start, end int64, ionIdx int) {
	s.mu.Lock()
	s.spans = append(s.spans, span{name: name, start: start, end: end, ion: ionIdx})
	s.mu.Unlock()
}

// all returns every recorded span, sorted by start time.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.shards {
		s.mu.Lock()
		out = append(out, s.spans...)
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// --- daemon listener seam (livestack.Config.WrapListener) -----------------

type tracedListener struct {
	net.Listener
	rec *recorder
	ion int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.rec.connsOpened.Add(1)
	return &tracedConn{Conn: c, rec: l.rec, sh: l.rec.newShard(), ion: l.ion}, nil
}

// tracedConn sits under a daemon's rpc server. The server reads one
// length-prefixed request frame, handles it, and writes one
// length-prefixed response frame, so the conn sees strictly alternating
// frames: the ion.conn span runs from the read that completes a request
// frame to the write that completes the response frame.
type tracedConn struct {
	net.Conn
	rec *recorder
	sh  *shard
	ion int

	in, out  frameScanner
	reqDone  int64
	inFlight bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rec.wireBytes.Add(int64(n))
		if c.in.feed(p[:n]) > 0 {
			c.reqDone, c.inFlight = c.rec.now(), true
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.rec.wireBytes.Add(int64(n))
		if c.out.feed(p[:n]) > 0 && c.inFlight {
			c.sh.add(spanConn, c.reqDone, c.rec.now(), c.ion)
			c.inFlight = false
		}
	}
	return n, err
}

// frameScanner finds frame boundaries in a byte stream of
// uint32-big-endian-length-prefixed frames (the rpc wire format), however
// the stream is cut into reads or writes.
type frameScanner struct {
	hdr  [4]byte
	nhdr int    // header bytes collected for the current frame
	body uint32 // body bytes still to come (valid once nhdr == 4)
}

// feed consumes p and returns how many frames were completed by it.
func (f *frameScanner) feed(p []byte) (completed int) {
	for len(p) > 0 {
		if f.nhdr < 4 {
			k := copy(f.hdr[f.nhdr:], p)
			f.nhdr += k
			p = p[k:]
			if f.nhdr < 4 {
				return completed
			}
			f.body = binary.BigEndian.Uint32(f.hdr[:])
		} else {
			k := uint32(len(p))
			if k > f.body {
				k = f.body
			}
			f.body -= k
			p = p[k:]
		}
		if f.body == 0 {
			completed++
			f.nhdr = 0
		}
	}
	return completed
}

// --- daemon backend seam (livestack.Config.WrapBackend) -------------------

// tracedBackend records a pfs.call span around every backend call one
// daemon makes.
type tracedBackend struct {
	b   ion.Backend
	rec *recorder
	sh  *shard
	ion int
}

func (t *tracedBackend) done(start int64) { t.sh.add(spanPFS, start, t.rec.now(), t.ion) }

func (t *tracedBackend) Create(path string) error {
	defer t.done(t.rec.now())
	return t.b.Create(path)
}

func (t *tracedBackend) Write(path string, off int64, p []byte) (int, error) {
	defer t.done(t.rec.now())
	return t.b.Write(path, off, p)
}

func (t *tracedBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	defer t.done(t.rec.now())
	return t.b.WriteAs(writer, path, off, p)
}

func (t *tracedBackend) Read(path string, off int64, p []byte) (int, error) {
	defer t.done(t.rec.now())
	return t.b.Read(path, off, p)
}

func (t *tracedBackend) Stat(path string) (pfs.FileInfo, error) {
	defer t.done(t.rec.now())
	return t.b.Stat(path)
}

func (t *tracedBackend) Remove(path string) error {
	defer t.done(t.rec.now())
	return t.b.Remove(path)
}

func (t *tracedBackend) Fsync(path string) error {
	defer t.done(t.rec.now())
	return t.b.Fsync(path)
}

// --- analysis --------------------------------------------------------------

// link assigns ids, op ids and parents by time containment. spans must be
// sorted by start. An op is a span of opName; those never overlap (one
// closed-loop generator), so a span belongs to the op whose interval
// contains its start. (Its end may trail the op's by a hair: the daemon
// stamps "response written" after the syscall that already woke the
// client.) A pfs.call's parent is the ion.conn of the same daemon that
// was open when it started; every other non-op span hangs off its op.
// Spans outside every op (set-up traffic) keep op = parent = -1.
func link(spans []span, opName string) {
	var ops []int
	for i := range spans {
		spans[i].id, spans[i].op, spans[i].parent = i, -1, -1
		if spans[i].name == opName {
			ops = append(ops, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name == opName {
			s.op = s.id
			continue
		}
		// Last op starting at or before s.start.
		k := sort.Search(len(ops), func(j int) bool { return spans[ops[j]].start > s.start }) - 1
		if k < 0 || spans[ops[k]].end <= s.start {
			continue
		}
		s.op, s.parent = ops[k], ops[k]
	}
	// Second pass: pfs.call → enclosing ion.conn on the same daemon.
	for i := range spans {
		s := &spans[i]
		if s.name != spanPFS || s.op < 0 {
			continue
		}
		for j := i - 1; j >= 0 && spans[j].start >= spans[s.op].start; j-- {
			c := &spans[j]
			if c.name == spanConn && c.ion == s.ion && c.end > s.start {
				s.parent = c.id
				break
			}
		}
	}
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs clipped to [lo, hi):
// overlapping children are counted once, which is what makes
// "duration − union(children)" a self time.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - unionLen(children, parent.start, parent.end)
}

// dataPlaneBreakdown splits the mean op time into the three layer
// groups the wrappers can tell apart. Per op: fwd+rpc self = op − union of
// its ion.conn spans; ion+agios self = that union − union of its pfs.call
// spans; pfs = the pfs.call union. The three always sum to the op time.
type dataPlaneBreakdown struct {
	ops                        int
	opUS, fwdRPCUS, ionAgiosUS float64
	pfsUS                      float64
	wireReqs, pfsCalls         int
}

func breakDown(spans []span, opName string) dataPlaneBreakdown {
	link(spans, opName)
	conns := map[int][]interval{}
	calls := map[int][]interval{}
	var bd dataPlaneBreakdown
	for _, s := range spans {
		if s.op < 0 {
			continue
		}
		switch s.name {
		case spanConn:
			conns[s.op] = append(conns[s.op], interval{s.start, s.end})
			bd.wireReqs++
		case spanPFS:
			calls[s.op] = append(calls[s.op], interval{s.start, s.end})
			bd.pfsCalls++
		}
	}
	var opNS, fwdNS, ionNS, pfsNS int64
	for _, s := range spans {
		if s.name != opName {
			continue
		}
		bd.ops++
		op := interval{s.start, s.end}
		dur := op.end - op.start
		fwdSelf := selfTime(op, conns[s.id])
		pfsU := unionLen(calls[s.id], op.start, op.end)
		opNS += dur
		fwdNS += fwdSelf
		ionNS += dur - fwdSelf - pfsU
		pfsNS += pfsU
	}
	if bd.ops > 0 {
		n := float64(bd.ops) * 1e3
		bd.opUS, bd.fwdRPCUS = float64(opNS)/n, float64(fwdNS)/n
		bd.ionAgiosUS, bd.pfsUS = float64(ionNS)/n, float64(pfsNS)/n
	}
	return bd
}

// meanSpanUS returns the mean duration in µs of the linked spans named
// name that belong to an op (warm-up spans belong to none).
func meanSpanUS(spans []span, name string) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.name == name && s.op >= 0 {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// dumpSpans writes one line per span: name, start, end (ns since the
// recorder's epoch), id, parent id and op id (-1 = none).
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,id,parent,op")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.id, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
