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
//   - bodies: the payload buffers the frame decoder lands a payload in and
//     handlers borrow for response payloads (GetBuffer), in the size
//     classes below. Only the payload lives in one — header and trailers
//     are parsed out of the connection's read buffer (see wire in
//     proto.go) — so a class is exactly a payload size;
//   - messages: the *Message envelopes the decoder returns and handlers
//     acquire for their responses (GetMessage);
//   - scratch: the per-writeFrame encode state (header/trailer bytes and
//     the net.Buffers vector).
//
// Ownership rule (the "release seam"): a *Message produced by the decoder
// or by GetMessage owns its envelope and its pooled payload buffer.
// Whoever consumes the message — copies Data out, or finishes writing the
// response it fed — calls Release exactly once; a message that is never
// released is simply garbage-collected, so correctness never depends on
// releasing. Never touch Data (or the Message) after Release.

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
// that fits, or freshly allocated when n exceeds the top class. Attach it
// to a message with SetPooledData (the decoder does, for a payload; a
// handler does, for a response's — the transport returns it to the pool
// once the frame is written) or return it manually with PutBuffer. The
// contents are not zeroed.
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
// to the GC rather than filed under a class it does not match. Only call
// it on a buffer that was never attached to a message; after SetPooledData
// the message's Release owns it.
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

// SetPooledData sets b as m's payload and marks it for release: after the
// frame carrying m is written, the transport returns the buffer to the
// pool. b should come from GetBuffer; any other buffer is accepted and is
// simply garbage-collected after the write.
func (m *Message) SetPooledData(b []byte) {
	m.Data = b
	m.body = b[:cap(b)]
}

// Release returns the message's pooled resources (its payload buffer, and
// the envelope itself when it came from the decoder or GetMessage) and
// must be called at most once, after which neither the message nor its
// Data may be touched. Safe on nil and on messages that own nothing (then
// a no-op), so callers can release unconditionally. Releasing is optional:
// an unreleased message is garbage-collected like any other value.
func (m *Message) Release() {
	if m == nil {
		return
	}
	body, pooled := m.body, m.envelope
	if body == nil && !pooled {
		return
	}
	m.body, m.envelope = nil, false
	PutBuffer(body)
	if pooled {
		*m = Message{}
		messagePool.Put(m)
	}
}

// frameScratch is the reusable encode state for one writeFrame call: the
// header/trailer bytes (or the whole frame, for small payloads) plus the
// 3-segment write vector. vec is always rebuilt from arr[:0] so the
// backing array survives net.Buffers' consume-by-reslice.
type frameScratch struct {
	buf []byte
	arr [3][]byte
	vec net.Buffers
}

// maxScratch bounds the buffer capacity a pooled scratch may retain; the
// encode side holds at most header + path + error + trailer plus a small
// payload, so anything larger is a one-off and is left to the GC.
const maxScratch = 256 << 10

var scratchPool = sync.Pool{New: func() any {
	return &frameScratch{buf: make([]byte, 512)}
}}

func getScratch(n int) *frameScratch {
	s := scratchPool.Get().(*frameScratch)
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:cap(s.buf)]
	return s
}

func putScratch(s *frameScratch) {
	if cap(s.buf) > maxScratch {
		return
	}
	s.arr = [3][]byte{}
	s.vec = nil
	scratchPool.Put(s)
}
