package rpc

import (
	"net"
	"sync"
	"unsafe"
)

// Payload-buffer and message pooling for the data plane. The forwarding hot
// path moves one span per frame — a chunk (512 KiB by default) up to a
// coalesced run of chunks (2 MiB by default); without pooling, every frame
// costs a payload-sized allocation on the receiving side, and at span sizes
// the clearing of those allocations and the GC work they trigger dominate
// the round trip. The pools below make the steady-state path
// allocation-free (TestWirePathBudgets holds it there):
//
//   - bodies: the payload buffers the frame decoder lands a payload in
//     (GetBuffer), in the size classes below. Only the payload lives in
//     one — header and trailers
//     are parsed out of the connection's read buffer (see wire in
//     proto.go) — so a class is exactly a payload size;
//   - messages: the *Message envelopes the decoder returns and handlers
//     acquire for their responses (GetMessage);
//   - scratch: the per-writeFrame encode state (header/trailer bytes and
//     the net.Buffers vector).
//
// Ownership rule (the "release seam"): a *Message produced by the decoder
// or by GetMessage owns its envelope and its pooled payload buffer, and a
// message a handler lent a payload to (Lend), or a request whose payload
// landed in a server's Sink, owns that lease. Whoever consumes the message
// — copies the payload out, or finishes writing the response it fed —
// calls Release exactly once; the server does for every request and every
// response, written or cut off mid-write, and once for a lease the two
// share. A message that is never released is simply garbage-collected, so
// correctness never depends on releasing — but a lease's owner keeps the
// lent bytes frozen until then (the I/O node's store replaces, rather than
// reuses, a block a reply still holds, and a write's stage keeps its
// blocks), so a leaked lease costs fresh blocks. Never touch the payload
// (or the Message) after Release.

// Body size classes, plain powers of two because payloads are: a metadata /
// small-request class, a mid class, one chunk, the largest span the
// forwarding client builds by default (fwd.DefaultCoalesceLimit;
// internal/fwd pins the pairing with a test), and one above it for
// user-raised coalesce limits. A request is served from the smallest class
// that fits, so a ping response never pins a span-sized buffer.
//
// Retention: every pooled buffer's capacity is exactly its class size.
// A payload above the top class is allocated directly and dropped on
// release, so one giant frame cannot pin memory and no class ever hands
// out more than it promises. What the classes do retain needs no budget of
// its own: sync.Pool releases a buffer that sat idle through two GC
// cycles, so the pools hold at most what recent traffic used.
var bodyClasses = [...]int{4 << 10, 64 << 10, 512 << 10, 2 << 20, 4 << 20}

// bodyPools hold each class's buffers as pointers to their first byte: a
// pointer goes in and out of a sync.Pool without boxing, where a slice
// would cost a header allocation per Put. The class a pointer was drawn
// from is its length.
var bodyPools [len(bodyClasses)]sync.Pool

// GetBuffer returns a length-n byte slice, pooled, from the smallest class
// that fits, or freshly allocated when n exceeds the top class. The
// decoder lands a payload in one, which its message's Release returns;
// anyone else returns it with PutBuffer (an I/O node's copied read reply
// does, from its lease's Release). The contents are not zeroed.
func GetBuffer(n int) []byte {
	for i, size := range bodyClasses {
		if n <= size {
			if p, _ := bodyPools[i].Get().(*byte); p != nil {
				return unsafe.Slice(p, size)[:n]
			}
			return make([]byte, n, size)
		}
	}
	return make([]byte, n)
}

// PutBuffer returns a buffer to the class it was drawn from. Anything else
// — an over-the-top-class payload, a foreign or resliced buffer — is left
// to the GC rather than filed under a class it does not match. Never call
// it on a buffer a decoded message's Release owns.
func PutBuffer(b []byte) {
	for i, size := range bodyClasses {
		if cap(b) == size {
			bodyPools[i].Put(unsafe.SliceData(b))
			return
		}
	}
}

var messagePool = sync.Pool{New: func() any { return &Message{} }}

// GetMessage returns a zero Message drawn from the package's envelope pool
// — what a handler builds its response in, so that a request costs no
// envelope allocation on the serving side. The transport's Release after
// the response frame is written returns it; anything that must outlive the
// exchange copies fields out by value.
func GetMessage() *Message {
	m := messagePool.Get().(*Message)
	m.envelope = true
	return m
}

// Lease owns payload bytes lent to a message, such as an I/O node's stored
// blocks lent to a read reply. Release hands them back to their owner.
// Implementations are pointers: the server compares leases with ==.
type Lease interface {
	Release()
}

// Lent returns the segments of m's payload after Data — lent by Lend, or
// by the Sink a request's payload landed in — and the lease owning them.
func (m *Message) Lent() ([][]byte, Lease) { return m.segs, m.lease }

// Lend adds segs, in order, to m's payload after Data (which a reply that
// lends its payload leaves empty), owned by l: the frame carrying m is
// written straight from them, and m's Release releases l. The segments
// must stay unchanged until then.
func (m *Message) Lend(segs [][]byte, l Lease) {
	m.segs, m.lease = segs, l
}

// Release returns the message's pooled resources (its payload buffer or
// lease, and the envelope itself when it came from the decoder or
// GetMessage) and must be called at most once, after which neither the
// message nor its payload may be touched. Safe on nil and on messages that
// own nothing (then a no-op), so callers can release unconditionally. An
// unreleased message is garbage-collected like any other value, its lease
// never returned to its owner.
func (m *Message) Release() {
	if m == nil {
		return
	}
	body, lease, pooled := m.body, m.lease, m.envelope
	if body == nil && lease == nil && !pooled {
		return
	}
	m.body, m.segs, m.lease, m.envelope = nil, nil, nil, false
	PutBuffer(body)
	if lease != nil {
		lease.Release()
	}
	if pooled {
		*m = Message{}
		messagePool.Put(m)
	}
}

// frameScratch is the reusable encode state for one writeFrame call: the
// header/trailer bytes (or the whole frame, for small payloads) and the
// write vector — arr keeps the backing array, vec is the copy net.Buffers
// consumes.
type frameScratch struct {
	buf []byte
	arr [][]byte
	vec net.Buffers
}

// maxScratch bounds the buffer capacity a pooled scratch may retain; the
// encode side holds at most header + path + error + trailer plus a small
// payload, so anything larger is a one-off and is left to the GC.
const maxScratch = 256 << 10

var scratchPool = sync.Pool{New: func() any {
	return &frameScratch{buf: make([]byte, 512), arr: make([][]byte, 0, 8)}
}}

func getScratch(n int) *frameScratch {
	s := scratchPool.Get().(*frameScratch)
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:cap(s.buf)]
	return s
}

// putScratch recycles s, dropping every reference it holds to a payload.
func putScratch(s *frameScratch) {
	if cap(s.buf) > maxScratch {
		return
	}
	clear(s.arr)
	s.arr, s.vec = s.arr[:0], nil
	scratchPool.Put(s)
}
