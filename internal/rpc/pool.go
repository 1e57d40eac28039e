package rpc

import (
	"net"
	"sync"
)

// Frame-buffer and message pooling for the data plane. The forwarding hot
// path moves one span per frame — a chunk (512 KiB by default) up to a
// coalesced run of chunks (4 MiB by default); without pooling, every frame
// costs a frame-sized allocation on each side of the wire plus a payload
// copy, and at span sizes the clearing of those allocations and the GC
// work they trigger dominate the round trip. The pools below make the
// steady-state path allocation-free (TestWirePathBudgets holds it there):
//
//   - bodies: the raw frame buffers ReadMessage decodes from and handlers
//     borrow for response payloads (GetBuffer), in the size classes
//     below;
//   - messages: the *Message envelopes ReadMessage returns;
//   - scratch: the per-writeFrame encode state (header/trailer bytes and
//     the net.Buffers vector).
//
// Ownership rule (the "release seam"): a *Message produced by ReadMessage
// owns its backing buffer. Whoever consumes the message — copies Data out,
// or finishes writing the response it fed — calls Release exactly once;
// a message that is never released is simply garbage-collected, so
// correctness never depends on releasing. Never touch Data (or the
// Message) after Release.

// frameAllowance is the room every body class leaves, on top of its
// payload size, for the rest of the frame: the 38 fixed header bytes, the
// path, an error string, and the dedup / priority / epoch / checksum
// trailers. Payloads arrive in powers of two (chunks and runs of chunks),
// so a class sized to the payload alone would push every such frame into
// the next class up — or, at the top, out of the pools altogether.
const frameAllowance = 1 << 10

// Body size classes: one rule, payload + frameAllowance, for a metadata /
// small-request class, a mid class, a class holding a two-chunk span, and
// a top class holding the largest frame the forwarding client builds by
// default (fwd.DefaultCoalesceLimit; internal/fwd pins the pairing with a
// test). A getBody(n) request is served from the smallest class that
// fits, so a ping response never pins a span-sized buffer.
//
// Retention: every pooled buffer's capacity is exactly its class size.
// A frame above the top class (a user-raised coalesce limit) is allocated
// directly and dropped on release, so one giant frame cannot pin memory
// and no class ever hands out more than it promises. What the classes do
// retain needs no budget of its own: sync.Pool releases a buffer that sat
// idle through two GC cycles, so the pools hold at most what recent
// traffic used.
var bodyClasses = [...]int{
	4<<10 + frameAllowance,
	64<<10 + frameAllowance,
	1<<20 + frameAllowance,
	4<<20 + frameAllowance,
}

var bodyPools = func() [len(bodyClasses)]*sync.Pool {
	var pools [len(bodyClasses)]*sync.Pool
	for i := range pools {
		size := bodyClasses[i]
		pools[i] = &sync.Pool{New: func() any {
			b := make([]byte, size)
			return &b
		}}
	}
	return pools
}()

// getBody returns a buffer with capacity ≥ n: pooled, from the smallest
// class that fits, or a fresh allocation when n exceeds the top class.
func getBody(n int) *[]byte {
	for i, size := range bodyClasses {
		if n <= size {
			return bodyPools[i].Get().(*[]byte)
		}
	}
	b := make([]byte, n)
	return &b
}

// putBody returns a buffer to the class it was drawn from. Anything else
// — an over-the-top-class frame, a foreign or resliced buffer — is left
// to the GC rather than filed under a class it does not match.
func putBody(b *[]byte) {
	c := cap(*b)
	for i, size := range bodyClasses {
		if c == size {
			*b = (*b)[:c]
			bodyPools[i].Put(b)
			return
		}
	}
}

var messagePool = sync.Pool{New: func() any { return &Message{} }}

// lenBufPool recycles the 4-byte frame-length prefix buffers ReadMessage
// reads into (see the escape note there).
var lenBufPool = sync.Pool{New: func() any { return new([4]byte) }}

// GetBuffer returns a length-n byte slice drawn from the package's frame
// buffer pool. Attach it to a response with Message.SetPooledData (the
// transport returns it to the pool once the frame is written) or return
// it manually with PutBuffer. The contents are not zeroed.
func GetBuffer(n int) []byte {
	b := getBody(n)
	return (*b)[:n]
}

// PutBuffer returns a GetBuffer slice to the pool. Only call it when the
// buffer was never attached to a message; after SetPooledData the
// transport owns the release.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	putBody(&b)
}

// SetPooledData sets b as m's payload and marks it for release: after the
// frame carrying m is written, the transport returns the buffer to the
// pool. b should come from GetBuffer; any other buffer is accepted and is
// simply garbage-collected after the write.
func (m *Message) SetPooledData(b []byte) {
	m.Data = b
	full := b[:cap(b)]
	m.body = &full
}

// SharesBuffer reports whether m and o hold the same pooled frame buffer
// — the shape a handler produces by shallow-copying a request into its
// response. The server uses it to release such a shared buffer once.
func (m *Message) SharesBuffer(o *Message) bool {
	return m != nil && o != nil && m.body != nil && m.body == o.body
}

// DisownBuffer detaches m from its pooled frame buffer without returning
// the buffer to the pool (another Message still owns it). Data is left
// intact.
func (m *Message) DisownBuffer() {
	if m != nil {
		m.body = nil
	}
}

// Release returns the message's pooled resources (its backing frame
// buffer, and the envelope itself when it came from ReadMessage) and must
// be called at most once, after which neither the message nor its Data
// may be touched. Safe on nil and on messages that own nothing (then a
// no-op), so callers can release unconditionally. Releasing is optional:
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
	if body != nil {
		putBody(body)
	}
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
