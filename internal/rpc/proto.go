// Package rpc is the forwarding layer's wire transport, standing in for the
// Mercury HPC RPC framework GekkoFS uses. It implements a compact framed
// binary protocol over TCP with connection pooling on the client side and a
// handler-dispatch server. The forwarding semantics (which server a request
// goes to, how requests are scheduled) live in the fwd and ion packages;
// this package only moves bytes.
//
// Frame layout (all integers big-endian):
//
//	uint32  frame length (bytes after this field)
//	uint8   opcode
//	uint8   flags       (bit 0: busy — the server shed this request;
//	                     bit 1: a CRC32C trailer is present;
//	                     bit 2: a dedup identity trailer is present;
//	                     bit 3: replayed — the server answered from its
//	                            dedup window instead of re-executing;
//	                     bit 4: a QoS priority trailer is present)
//	uint32  retry-after (microseconds; busy responses only, else 0)
//	uint64  trace id   (0 = untraced; see internal/telemetry)
//	uint16  path length
//	bytes   path
//	int64   offset
//	int64   size       (read length, stat results, etc.)
//	uint32  data length
//	bytes   data       (write payload or read result)
//	uint16  error length
//	bytes   error      (responses only; empty means success)
//	-- optional, bit 2 --
//	uint16  client id length
//	bytes   client id  (exactly-once identity; see internal/ion dedup)
//	uint64  sequence   (per-client, starts at 1; 0 = unstamped)
//	-- optional, bit 4 --
//	uint8   priority   (QoS scheduling tier; see internal/qos. 0 is never
//	                    encoded — an unclassed message carries no trailer)
//	-- optional, bit 1, always last --
//	uint32  CRC32C     (Castagnoli, over every body byte before it)
//
// All trailers are flag-gated so a message that carries none (and a
// writer with checksums off) encodes byte-identically to protocol
// version 1; version 2 readers accept every form, which is the whole
// negotiation.
//
// One encoder (writeFrame) and one streaming decoder (wire.readFrame, behind
// every conn and behind ReadMessage) own that layout.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// ProtoVersion identifies the frame format: version 2 added the flag-gated
// CRC32C and dedup-identity trailers. Version 1 frames are exactly the
// version 2 frames with neither flag set, so readers need no version field
// on the wire — presence bits are the negotiation.
const ProtoVersion = 2

// Op identifies the remote operation.
type Op uint8

// Remote operations understood by I/O-node daemons.
const (
	OpPing Op = iota + 1
	OpCreate
	OpWrite
	OpRead
	OpStat
	OpRemove
	OpFsync
	OpShutdown
)

func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpStat:
		return "stat"
	case OpRemove:
		return "remove"
	case OpFsync:
		return "fsync"
	case OpShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Message is both the request and response representation.
type Message struct {
	Op     Op
	Path   string
	Offset int64
	Size   int64
	Data   []byte
	Err    string
	// Trace carries the originating request's telemetry trace ID across
	// the wire so server-side layers can append hops to the same record.
	// Zero means untraced; servers echo it back in responses.
	Trace uint64
	// Busy marks a shed response: the server is alive but refused to take
	// the request on (queue above its high watermark, in-flight cap hit).
	// A busy response is NOT a transport failure — the exchange completed
	// — and NOT an application error: the request was never attempted.
	// Clients surface it as an *Error of ClassBusy so the forwarding layer
	// can throttle and retry instead of failing over or tripping breakers.
	Busy bool
	// RetryAfter is the server's hint for when to try again (busy
	// responses only). Encoded on the wire as whole microseconds.
	RetryAfter time.Duration
	// ClientID and Seq are the exactly-once identity of a forwarded
	// request: ClientID names the issuing forwarding client instance, Seq
	// is its per-client sequence number (starting at 1; 0 means
	// unstamped). A daemon with a dedup window uses the pair to recognise
	// a transport-retried request it already applied and replay the cached
	// response instead of re-executing it.
	ClientID string
	Seq      uint64
	// Replayed marks a response served from the daemon's dedup window:
	// the operation was applied by an earlier attempt and this response
	// repeats its outcome without re-executing.
	Replayed bool
	// Priority is the request's QoS scheduling tier (see internal/qos:
	// 3 guaranteed, 2 standard, 1 scavenger). Zero means unclassed — no
	// priority trailer is encoded, keeping the frame byte-identical to a
	// stack without QoS — and schedulers treat unclassed like standard.
	Priority uint8
	// Epoch is the mapping epoch the sender routed under (requests), or
	// the I/O node's fence floor (stale-epoch responses). Zero means
	// unstamped — no epoch trailer is encoded, keeping the frame
	// byte-identical to a stack without epoch fencing — and daemons
	// never fence an unstamped write.
	Epoch uint64

	// Dst, on a request handed to a Client, is where the reply's payload
	// belongs: when it fits, the transport decodes it straight into Dst and
	// the reply's Data aliases it (Dst is the one segment of the landing
	// rule; see Sink). Never encoded. Its bytes mean something
	// only under a reply the call returned: a failed exchange (broken conn,
	// checksum mismatch, Interrupt) may leave some there to be overwritten.
	Dst []byte

	// body is the pooled payload buffer Data aliases, at its full capacity
	// (nil when the payload is caller-owned), and envelope marks a Message
	// drawn from the message pool. segs, set by Lend or by a Sink the
	// payload landed in, follow Data in the payload and are owned by lease.
	// Release returns body, lease and envelope; see pool.go for the
	// ownership rules.
	body     []byte
	envelope bool
	segs     [][]byte
	lease    Lease
}

// PayloadLen returns the length of m's payload: Data and the segments
// Lend attached or a Sink lent.
func (m *Message) PayloadLen() int {
	n := len(m.Data)
	for _, seg := range m.segs {
		n += len(seg)
	}
	return n
}

// Flag bits for the frame's flags byte.
const (
	flagBusy     = 1 << 0
	flagChecksum = 1 << 1
	flagDedup    = 1 << 2
	flagReplay   = 1 << 3
	flagPriority = 1 << 4
	flagEpoch    = 1 << 5
)

// castagnoli is the CRC32C polynomial table used for frame checksums
// (the same polynomial iSCSI and ext4 use; hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxFrame bounds a single frame (a forwarded request carries at most one
// coalesced span, so this is generous).
const MaxFrame = 64 << 20

// MaxData bounds one message payload: half a frame minus header room.
// The forwarding layer clamps its span-coalescing limit to it so a merged
// wire request can always be framed.
const MaxData = MaxFrame/2 - 64

// Frame size limits for the variable-length fields.
const (
	maxPath = 1 << 16 // uint16 length prefix
	maxErr  = 1 << 16 // uint16 length prefix
	maxData = MaxData
)

var (
	// ErrFrameTooLarge indicates a frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("rpc: frame too large")
	// ErrClosed indicates use of a closed client or server.
	ErrClosed = errors.New("rpc: closed")
	// ErrChecksum indicates a frame whose CRC32C trailer does not match
	// its body: the bytes were altered in flight. It is a transport
	// failure — the connection that produced it must be discarded, since
	// framing can no longer be trusted.
	ErrChecksum = errors.New("rpc: frame checksum mismatch")
)

// validateMessage checks the frame-size limits before any byte touches the
// wire, so an unsendable message is a permanent local error — it must not
// discard a healthy connection, burn retries, or trip the circuit breaker.
func validateMessage(m *Message) error {
	if len(m.Path) >= maxPath {
		return fmt.Errorf("rpc: path too long (%d bytes)", len(m.Path))
	}
	if len(m.Err) >= maxErr {
		return fmt.Errorf("rpc: error string too long (%d bytes)", len(m.Err))
	}
	if len(m.ClientID) >= maxPath {
		return fmt.Errorf("rpc: client id too long (%d bytes)", len(m.ClientID))
	}
	if n := m.PayloadLen(); n > maxData {
		return fmt.Errorf("%w: %d-byte payload", ErrFrameTooLarge, n)
	}
	return nil
}

// WriteMessage encodes m onto w as one frame, without a checksum trailer
// (the protocol-version-1 form; a dedup identity on m is still encoded).
func WriteMessage(w io.Writer, m *Message) error {
	return writeFrame(w, m, false)
}

// WriteMessageChecksum encodes m onto w as one frame with a CRC32C
// trailer. Readers verify the trailer whenever it is present, so a
// checksumming writer interoperates with any reader of this package.
func WriteMessageChecksum(w io.Writer, m *Message) error {
	return writeFrame(w, m, true)
}

// vectoredMin is the payload size at which writeFrame stops copying the
// payload into its scratch buffer and instead hands the caller's bytes to
// the connection directly as the middle segment of a vectored
// net.Buffers write (one writev syscall on TCP, no copy-in). Below it a
// single contiguous Write is cheaper than the extra iovecs, and control
// frames (pings, metadata, busy responses) stay single-write.
const vectoredMin = 8 << 10

func writeFrame(w io.Writer, m *Message, sum bool) error {
	if err := validateMessage(m); err != nil {
		return err
	}
	hasDedup := m.ClientID != "" || m.Seq != 0
	dataLen := m.PayloadLen()
	n := 1 + 1 + 4 + 8 + 2 + len(m.Path) + 8 + 8 + 4 + dataLen + 2 + len(m.Err)
	if hasDedup {
		n += 2 + len(m.ClientID) + 8
	}
	if m.Priority != 0 {
		n++
	}
	if m.Epoch != 0 {
		n += 8
	}
	if sum {
		n += 4
	}
	// The scratch holds everything but the payload; small payloads are
	// copied in so the frame goes out as one Write.
	vectored := dataLen >= vectoredMin
	need := 4 + n
	if vectored {
		need -= dataLen
	}
	s := getScratch(need)
	defer putScratch(s)
	buf := s.buf
	binary.BigEndian.PutUint32(buf[0:], uint32(n))
	p := 4
	buf[p] = byte(m.Op)
	p++
	var flags byte
	if m.Busy {
		flags |= flagBusy
	}
	if sum {
		flags |= flagChecksum
	}
	if hasDedup {
		flags |= flagDedup
	}
	if m.Replayed {
		flags |= flagReplay
	}
	if m.Priority != 0 {
		flags |= flagPriority
	}
	if m.Epoch != 0 {
		flags |= flagEpoch
	}
	buf[p] = flags
	p++
	binary.BigEndian.PutUint32(buf[p:], retryAfterMicros(m.RetryAfter))
	p += 4
	binary.BigEndian.PutUint64(buf[p:], m.Trace)
	p += 8
	binary.BigEndian.PutUint16(buf[p:], uint16(len(m.Path)))
	p += 2
	p += copy(buf[p:], m.Path)
	binary.BigEndian.PutUint64(buf[p:], uint64(m.Offset))
	p += 8
	binary.BigEndian.PutUint64(buf[p:], uint64(m.Size))
	p += 8
	binary.BigEndian.PutUint32(buf[p:], uint32(dataLen))
	p += 4
	if !vectored {
		p += copy(buf[p:], m.Data)
		for _, seg := range m.segs {
			p += copy(buf[p:], seg)
		}
	}
	tail := p // trailer segment start: everything after the payload
	binary.BigEndian.PutUint16(buf[p:], uint16(len(m.Err)))
	p += 2
	p += copy(buf[p:], m.Err)
	if hasDedup {
		binary.BigEndian.PutUint16(buf[p:], uint16(len(m.ClientID)))
		p += 2
		p += copy(buf[p:], m.ClientID)
		binary.BigEndian.PutUint64(buf[p:], m.Seq)
		p += 8
	}
	if m.Priority != 0 {
		buf[p] = m.Priority
		p++
	}
	if m.Epoch != 0 {
		binary.BigEndian.PutUint64(buf[p:], m.Epoch)
		p += 8
	}
	if sum {
		// The trailer covers every body byte before it, in wire order —
		// fed segment-wise here, identical to a contiguous checksum.
		crc := crc32.Update(0, castagnoli, buf[4:tail])
		if vectored {
			crc = crc32.Update(crc, castagnoli, m.Data)
			for _, seg := range m.segs {
				crc = crc32.Update(crc, castagnoli, seg)
			}
		}
		crc = crc32.Update(crc, castagnoli, buf[tail:p])
		binary.BigEndian.PutUint32(buf[p:], crc)
		p += 4
	}
	if !vectored {
		_, err := w.Write(buf[:p])
		return err
	}
	// Header, payload and trailer in one vectored write (one writev on
	// TCP). vec is a copy of arr, whose backing array survives
	// net.Buffers' consume-by-reslice.
	s.arr = append(s.arr[:0], buf[:tail])
	if len(m.Data) > 0 {
		s.arr = append(s.arr, m.Data)
	}
	s.arr = append(append(s.arr, m.segs...), buf[tail:p])
	s.vec = s.arr
	_, err := s.vec.WriteTo(w)
	return err
}

// Sink lends the decoder the memory a request's payload lands in: n bytes
// of segments, in order, and the lease that owns them, which the message's
// Release releases — also when the decode fails after the sink returned. m
// has its header (Op, Path, Offset, Size) decoded, not yet its trailers. A
// nil lease declines, and the payload lands in a pooled buffer.
type Sink func(m *Message, n int) (segs [][]byte, l Lease)

// readBufSize is a connection's read buffer: a small frame — a metadata op,
// a 4 KiB request with every trailer — arrives in one read. A larger
// payload goes around it (bufio reads straight into the destination once
// the buffer is empty).
const readBufSize = 8 << 10

// wire is the per-connection wire record, the same on both ends of a conn.
// Frames are written straight to conn — net.Buffers.WriteTo only reaches
// writev on the *net.TCPConn itself — and read through br by readFrame.
type wire struct {
	conn    net.Conn
	br      *bufio.Reader
	held    int    // bytes of br's buffer the last take handed out, given back by the next read
	scratch []byte // a header or trailer segment longer than br's buffer
	// path and id are the last decoded Path and ClientID: a frame whose
	// bytes equal them reuses the strings. A serving conn remembers its
	// previous request's; a client conn is primed with the request's own.
	path, id string
	// lim is nil on a conn. ReadMessage's reader must not be read past the
	// frame: it admits the length prefix, then exactly the body.
	lim *io.LimitedReader
	one [1][]byte // the segment a payload not lent by a sink lands in
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, br: bufio.NewReaderSize(conn, readBufSize)}
}

func (w *wire) release() {
	w.br.Discard(w.held)
	w.held = 0
}

// take returns the next k bytes of the stream, valid until the next take or
// read. On error it returns what there was.
func (w *wire) take(k int) ([]byte, error) {
	w.release()
	if k > w.br.Size() {
		if cap(w.scratch) < k {
			w.scratch = make([]byte, k)
		}
		n, err := io.ReadFull(w.br, w.scratch[:k])
		return w.scratch[:n], err
	}
	b, err := w.br.Peek(k)
	if err == nil {
		w.held = k
	}
	return b, err
}

// finish consumes the rem bytes a frame has left — bytes the decoder has no
// field for, then the crcLen-byte CRC trailer — and checks the trailer
// against crc extended over the rest.
func (w *wire) finish(rem, crcLen int, crc uint32) error {
	for rem > crcLen {
		b, err := w.take(min(rem-crcLen, w.br.Size()))
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, b)
		rem -= len(b)
	}
	if crcLen > 0 {
		if b, err := w.take(crcLen); err != nil {
			return err
		} else if binary.BigEndian.Uint32(b) != crc {
			return ErrChecksum
		}
	}
	w.release()
	return nil
}

// midFrame types a read error inside a frame: the stream ending there is a
// truncation, never the clean io.EOF between frames.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func truncated(need, have, n int) error {
	return fmt.Errorf("rpc: truncated frame (need %d of the %d left in %d): %w", need, have, n, io.ErrUnexpectedEOF)
}

// reuse returns b as a string, through *last when the bytes equal it.
func reuse(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// Fixed-size runs of the layout, and the most the known fields after the
// payload can occupy.
const (
	headLen   = 1 + 1 + 4 + 8 + 2 // opcode, flags, retry-after, trace id, path length
	midLen    = 8 + 8 + 4         // offset, size, data length
	maxFields = 2 + maxErr + 2 + maxPath + 8 + 1 + 8
)

// readFrame streams the next frame off the wire (contract: ReadMessage):
// header and trailers are parsed out of the read buffer, the payload lands
// where it is going (see land) and the CRC is fed segment by segment, as
// writeFrame produced it. Every length is checked against what the frame
// has left before it sizes anything, and the message is handed out only
// once the CRC (when there is one) verified.
func (w *wire) readFrame(dst []byte, sink Sink) (*Message, error) {
	b, err := w.take(4)
	if err != nil {
		if len(b) > 0 { // else the stream ended cleanly, between frames
			err = midFrame(err)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if w.lim != nil {
		w.lim.N = int64(n)
	}
	if n < headLen {
		return nil, truncated(headLen, n, n)
	}
	if b, err = w.take(headLen); err != nil {
		return nil, midFrame(err)
	}
	rem := n - headLen // body bytes still in the stream, CRC trailer included
	flags := b[1]
	var crc uint32
	crcLen := 0
	if flags&flagChecksum != 0 {
		crc, crcLen = crc32.Update(0, castagnoli, b), 4
	}
	m := GetMessage()
	m.Op = Op(b[0])
	m.Busy = flags&flagBusy != 0
	m.Replayed = flags&flagReplay != 0
	m.RetryAfter = time.Duration(binary.BigEndian.Uint32(b[2:])) * time.Microsecond
	m.Trace = binary.BigEndian.Uint64(b[6:])
	pathLen := int(binary.BigEndian.Uint16(b[14:]))

	// fail ends a decode: on a read error, with it; on a length the frame
	// has no room for, as a truncation — unless the rest of a checksummed
	// frame, put through the CRC, says the length was a flipped bit.
	fail := func(need int, err error) (*Message, error) {
		m.Release()
		if err == nil {
			err = truncated(need, rem-crcLen, n)
			if crcLen > 0 && rem >= crcLen {
				if ferr := w.finish(rem, crcLen, crc); ferr != nil {
					err = ferr
				}
			}
		}
		return nil, midFrame(err)
	}
	// seg takes the next k bytes of the body into the CRC.
	seg := func(k int) bool {
		if b, err = w.take(k); err != nil {
			return false
		}
		rem -= k
		if crcLen > 0 {
			crc = crc32.Update(crc, castagnoli, b)
		}
		return true
	}

	if k := pathLen + midLen; k > rem-crcLen {
		return fail(k, nil)
	} else if !seg(k) {
		return fail(0, err)
	}
	m.Path = reuse(&w.path, b[:pathLen])
	b = b[pathLen:]
	m.Offset = int64(binary.BigEndian.Uint64(b))
	m.Size = int64(binary.BigEndian.Uint64(b[8:]))
	dataLen := int(binary.BigEndian.Uint32(b[16:]))
	if dataLen+2 > rem-crcLen {
		return fail(dataLen+2, nil)
	}
	if dataLen > 0 {
		w.release()
		for _, seg := range w.land(m, dataLen, dst, sink) {
			if _, err := io.ReadFull(w.br, seg); err != nil {
				return fail(0, err)
			}
			if crcLen > 0 {
				crc = crc32.Update(crc, castagnoli, seg)
			}
		}
		w.one[0] = nil
		rem -= dataLen
	}

	// After the payload: the error text and the flag-gated trailers. A
	// trailer this version does not know is left for finish to skip.
	if !seg(min(rem-crcLen, maxFields)) {
		return fail(0, err)
	}
	errLen := int(binary.BigEndian.Uint16(b)) // seg took at least these two bytes
	if b = b[2:]; errLen > len(b) {
		return fail(errLen, nil)
	} else if errLen > 0 {
		m.Err = string(b[:errLen])
	}
	b = b[errLen:]
	if flags&flagDedup != 0 {
		if len(b) < 2 {
			return fail(2, nil)
		}
		idLen := int(binary.BigEndian.Uint16(b))
		if b = b[2:]; idLen+8 > len(b) {
			return fail(idLen+8, nil)
		}
		m.ClientID = reuse(&w.id, b[:idLen])
		m.Seq = binary.BigEndian.Uint64(b[idLen:])
		b = b[idLen+8:]
	}
	if flags&flagPriority != 0 {
		if len(b) < 1 {
			return fail(1, nil)
		}
		m.Priority, b = b[0], b[1:]
	}
	if flags&flagEpoch != 0 {
		if len(b) < 8 {
			return fail(8, nil)
		}
		m.Epoch = binary.BigEndian.Uint64(b)
	}
	if err := w.finish(rem, crcLen, crc); err != nil {
		return fail(0, err)
	}
	return m, nil
}

// land returns the segments m's n-byte payload lands in, under one rule:
// the sink's, when it lends them; else dst as one segment, when it holds
// the payload; else a pooled buffer of its size.
func (w *wire) land(m *Message, n int, dst []byte, sink Sink) [][]byte {
	if sink != nil {
		if segs, l := sink(m, n); l != nil {
			m.segs, m.lease = segs, l
			return segs
		}
	}
	if n <= len(dst) {
		m.Data = dst[:n]
	} else {
		m.Data = GetBuffer(n)
		m.body = m.Data[:cap(m.Data)] // Release returns it
	}
	w.one[0] = m.Data
	return w.one[:]
}

// frameReaders are the wire records ReadMessage decodes through.
var frameReaders = sync.Pool{New: func() any {
	lim := new(io.LimitedReader)
	return &wire{br: bufio.NewReaderSize(lim, readBufSize), lim: lim}
}}

// ReadMessage decodes one frame from r, reading no byte past it. When the
// frame carries a CRC32C trailer (flag bit 1), nothing of it is handed out
// before the trailer verified; a mismatch returns ErrChecksum. Every
// truncation — a stream that ends mid-frame as well as a frame whose
// declared length is too short for its fields — surfaces as
// io.ErrUnexpectedEOF (possibly wrapped); plain io.EOF means the stream
// ended cleanly between frames. After an error the stream's position is
// undefined.
//
// The returned message and its Data come from the package's pools: a
// consumer that is done with the message may call Release to recycle them
// (the transport's own call sites do); a message that is never released is
// garbage-collected like any other value. Data aliases the pooled payload
// buffer — copy it out before Release.
func ReadMessage(r io.Reader) (*Message, error) {
	w := frameReaders.Get().(*wire)
	*w.lim = io.LimitedReader{R: r, N: 4}
	w.br.Reset(w.lim)
	w.held = 0
	m, err := w.readFrame(nil, nil)
	w.lim.R = nil
	frameReaders.Put(w)
	return m, err
}

// retryAfterMicros converts a retry-after hint to its wire encoding:
// whole microseconds, saturating at the uint32 ceiling (~71 minutes —
// far beyond any sane hint) and clamping negatives to zero.
func retryAfterMicros(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	us := d.Microseconds()
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}
