package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"
)

// referenceDecode is the decoder the streaming one replaced, kept as the
// reference the equivalence test compares against: read the length, read
// the whole body into one buffer, verify the CRC over it, then parse the
// fields in order.
func referenceDecode(r io.Reader) (*Message, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lb[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	m := &Message{}
	p := 0
	fail := func(k int) (*Message, error) {
		return nil, fmt.Errorf("rpc: truncated frame (need %d at %d of %d): %w", k, p, len(buf), io.ErrUnexpectedEOF)
	}
	var flags byte
	if len(buf) >= 2 {
		flags = buf[1]
	}
	if flags&flagChecksum != 0 {
		if len(buf) < 4 {
			return fail(4)
		}
		payload, want := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
		if crc32.Checksum(payload, castagnoli) != want {
			return nil, ErrChecksum
		}
		buf = payload
	}
	if p+16 > len(buf) {
		return fail(16)
	}
	m.Op = Op(buf[p])
	p++
	m.Busy = buf[p]&flagBusy != 0
	m.Replayed = buf[p]&flagReplay != 0
	p++
	m.RetryAfter = time.Duration(binary.BigEndian.Uint32(buf[p:])) * time.Microsecond
	p += 4
	m.Trace = binary.BigEndian.Uint64(buf[p:])
	p += 8
	pathLen := int(binary.BigEndian.Uint16(buf[p:]))
	p += 2
	if p+pathLen+20 > len(buf) {
		return fail(pathLen + 20)
	}
	m.Path = string(buf[p : p+pathLen])
	p += pathLen
	m.Offset = int64(binary.BigEndian.Uint64(buf[p:]))
	p += 8
	m.Size = int64(binary.BigEndian.Uint64(buf[p:]))
	p += 8
	dataLen := int(binary.BigEndian.Uint32(buf[p:]))
	p += 4
	if p+dataLen+2 > len(buf) {
		return fail(dataLen + 2)
	}
	if dataLen > 0 {
		m.Data = buf[p : p+dataLen]
	}
	p += dataLen
	errLen := int(binary.BigEndian.Uint16(buf[p:]))
	p += 2
	if p+errLen > len(buf) {
		return fail(errLen)
	}
	if errLen > 0 {
		m.Err = string(buf[p : p+errLen])
	}
	p += errLen
	if flags&flagDedup != 0 {
		if p+2 > len(buf) {
			return fail(2)
		}
		idLen := int(binary.BigEndian.Uint16(buf[p:]))
		p += 2
		if p+idLen+8 > len(buf) {
			return fail(idLen + 8)
		}
		m.ClientID = string(buf[p : p+idLen])
		p += idLen
		m.Seq = binary.BigEndian.Uint64(buf[p:])
		p += 8
	}
	if flags&flagPriority != 0 {
		if p+1 > len(buf) {
			return fail(1)
		}
		m.Priority = buf[p]
		p++
	}
	if flags&flagEpoch != 0 {
		if p+8 > len(buf) {
			return fail(8)
		}
		m.Epoch = binary.BigEndian.Uint64(buf[p:])
	}
	return m, nil
}

// sameMessage compares every wire field of two decoded messages.
func sameMessage(a, b *Message) bool {
	return a.Op == b.Op && a.Path == b.Path && a.Offset == b.Offset && a.Size == b.Size &&
		a.Err == b.Err && a.Trace == b.Trace && a.Busy == b.Busy && a.RetryAfter == b.RetryAfter &&
		a.ClientID == b.ClientID && a.Seq == b.Seq && a.Replayed == b.Replayed &&
		a.Priority == b.Priority && a.Epoch == b.Epoch && bytes.Equal(a.Data, b.Data)
}

// splitReader delivers a stream in pieces of at most step bytes (0: no
// limit) that also end at cut (0: nowhere).
type splitReader struct {
	data []byte
	cut  int
	step int
	pos  int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	if r.step > 0 {
		end = min(end, r.pos+r.step)
	}
	if r.cut > r.pos {
		end = min(end, r.cut)
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

// streamWire is a connection's wire record over an arbitrary reader.
func streamWire(r io.Reader) *wire {
	w := newWire(nil)
	w.br.Reset(r)
	return w
}

// TestDecoderMatchesReference: every frame writeFrame can emit — all
// trailer combinations, checksum on and off, payloads on both sides of the
// read buffer and of the vectored-write threshold up to a default span —
// decodes to the same Message as the reference decoder, through ReadMessage
// and through a connection's wire record, delivered whole, a byte at a
// time (up to 8 KiB; in 4099-byte pieces above), and cut at every field
// boundary of the layout (at every byte, for a dataless frame).
func TestDecoderMatchesReference(t *testing.T) {
	for _, size := range []int{0, 4 << 10, 8<<10 - 1, 8 << 10, 2 << 20} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*13 + size)
		}
		for combo := 0; combo < 32; combo++ {
			m := &Message{Op: OpWrite, Path: "/eq/file", Offset: 1 << 33, Size: int64(size), Data: data, Trace: 11}
			if combo&1 != 0 {
				m.ClientID, m.Seq = "app#3", 77
			}
			if combo&2 != 0 {
				m.Priority = 3
			}
			if combo&4 != 0 {
				m.Epoch = 1 << 35
			}
			if combo&8 != 0 {
				m.Err = "ion: short read"
			}
			if combo&16 != 0 {
				m.Busy, m.Replayed, m.RetryAfter = true, true, 3*time.Millisecond
			}
			for _, sum := range []bool{false, true} {
				var enc bytes.Buffer
				if err := writeFrame(&enc, m, sum); err != nil {
					t.Fatal(err)
				}
				frame := enc.Bytes()
				want, err := referenceDecode(bytes.NewReader(frame))
				if err != nil {
					t.Fatalf("size %d combo %d sum %v: reference: %v", size, combo, sum, err)
				}
				// Field boundaries, from the layout: length, head, path,
				// offset/size/data length, payload, error, then each trailer.
				cuts := []int{4, 4 + headLen, 4 + headLen + len(m.Path), 4 + headLen + len(m.Path) + midLen}
				at := cuts[len(cuts)-1] + size
				for _, k := range []int{0, 2, len(m.Err)} {
					at += k
					cuts = append(cuts, at)
				}
				for at < len(frame) {
					at++ // the trailers are short: every byte of them
					cuts = append(cuts, at)
				}
				deliveries := []*splitReader{{data: frame}, {data: frame, step: 4099}}
				if size <= 8<<10 {
					deliveries = append(deliveries, &splitReader{data: frame, step: 1})
				}
				if size > 8<<10 && combo != 0 && combo != 31 {
					cuts = nil // a span-sized frame is cut up for the barest and the fullest trailer set only
				}
				for _, c := range cuts {
					deliveries = append(deliveries, &splitReader{data: frame, cut: c})
				}
				if size == 0 {
					for c := 1; c < len(frame); c++ {
						deliveries = append(deliveries, &splitReader{data: frame, cut: c})
					}
				}
				for _, d := range deliveries {
					for _, conn := range []bool{false, true} {
						d.pos = 0
						var got *Message
						if conn {
							got, err = streamWire(d).readFrame(nil, nil)
						} else {
							got, err = ReadMessage(d)
						}
						if err != nil {
							t.Fatalf("size %d combo %d sum %v cut %d step %d conn %v: %v", size, combo, sum, d.cut, d.step, conn, err)
						}
						if !sameMessage(got, want) {
							t.Fatalf("size %d combo %d sum %v cut %d step %d conn %v: decoded\n  %+v\nreference\n  %+v", size, combo, sum, d.cut, d.step, conn, got, want)
						}
						if d.pos != len(frame) {
							t.Fatalf("size %d combo %d sum %v: decoder left %d bytes of the frame unread", size, combo, sum, len(frame)-d.pos)
						}
						got.Release()
					}
				}
			}
		}
	}
}

// TestDecoderAgreesWithReferenceOnDamage: on frames the encoder would never
// emit — every single-byte flip and every declared length of a small
// checksummed and a small plain frame — the two decoders accept the same
// inputs and decode them alike.
func TestDecoderAgreesWithReferenceOnDamage(t *testing.T) {
	m := &Message{Op: OpWrite, Path: "/d", Data: []byte("abcdefgh"), Err: "e", ClientID: "c1", Seq: 3, Priority: 2, Epoch: 9}
	for _, sum := range []bool{false, true} {
		var enc bytes.Buffer
		if err := writeFrame(&enc, m, sum); err != nil {
			t.Fatal(err)
		}
		raw := enc.Bytes()
		var inputs [][]byte
		for i := range raw {
			for _, bit := range []byte{0x01, 0x40, 0x80} {
				cp := append([]byte(nil), raw...)
				cp[i] ^= bit
				inputs = append(inputs, cp)
			}
		}
		for n := 0; n <= len(raw)+8; n++ {
			cp := append(append([]byte(nil), raw...), make([]byte, 8)...)
			binary.BigEndian.PutUint32(cp, uint32(n))
			inputs = append(inputs, cp)
		}
		for i, in := range inputs {
			want, werr := referenceDecode(bytes.NewReader(in))
			got, gerr := ReadMessage(bytes.NewReader(in))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("sum %v input %d: reference err %v, decoder err %v", sum, i, werr, gerr)
			}
			if werr == nil && !sameMessage(got, want) {
				t.Fatalf("sum %v input %d: decoded\n  %+v\nreference\n  %+v", sum, i, got, want)
			}
			if errors.Is(werr, ErrChecksum) != errors.Is(gerr, ErrChecksum) && len(in) >= 4 && binary.BigEndian.Uint32(in) >= headLen+4 {
				t.Fatalf("sum %v input %d: reference err %v, decoder err %v", sum, i, werr, gerr)
			}
		}
	}
}

// TestPipelinedFramesBothDecode: two requests that reach the server in one
// segment — the second sits in the connection's read buffer while the first
// is served — are both decoded and answered, in order.
func TestPipelinedFramesBothDecode(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var two bytes.Buffer
	for _, p := range []string{"/first", "/second"} {
		if err := WriteMessageChecksum(&two, &Message{Op: OpWrite, Path: p, Data: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(two.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	w := newWire(conn)
	for _, p := range []string{"/first", "/second"} {
		resp, err := w.readFrame(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if resp.Path != p || string(resp.Data) != p {
			t.Fatalf("want the echo of %s, got %+v", p, resp)
		}
	}
}

// TestConnWithUnreadBytesIsNotPooled: a server that sends more than the one
// reply leaves bytes in the conn's read buffer; the next exchange would
// take them for its own reply, so the conn is closed, not pooled.
func TestConnWithUnreadBytesIsNotPooled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := ReadMessage(conn)
					if err != nil {
						return
					}
					var out bytes.Buffer
					WriteMessage(&out, &Message{Op: req.Op, Path: req.Path})
					if req.Path == "/chatty" {
						WriteMessage(&out, &Message{Op: req.Op, Path: "/unasked"})
					}
					if _, err := conn.Write(out.Bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	cli := Dial(ln.Addr().String(), 1)
	defer cli.Close()
	pooled := func() int {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return len(cli.idle)
	}
	if _, err := cli.Call(&Message{Op: OpPing, Path: "/quiet"}); err != nil {
		t.Fatal(err)
	}
	if pooled() != 1 {
		t.Fatalf("a clean exchange left %d idle conns, want 1", pooled())
	}
	resp, err := cli.Call(&Message{Op: OpPing, Path: "/chatty"})
	if err != nil || resp.Path != "/chatty" {
		t.Fatalf("chatty exchange: %+v, %v", resp, err)
	}
	if pooled() != 0 {
		t.Fatal("a conn with unread bytes in its buffer went back to the pool")
	}
	if resp, err := cli.Call(&Message{Op: OpPing, Path: "/after"}); err != nil || resp.Path != "/after" {
		t.Fatalf("the call after got %+v, %v: it must not see the unasked frame", resp, err)
	}
}

// TestReplyDecodesIntoDst: a reply's payload lands in the request's Dst
// when it fits — Data aliases it and owns no pooled buffer — and in a
// pooled buffer when it does not.
func TestReplyDecodesIntoDst(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16)
	srv := NewServer(func(req *Message) *Message {
		resp := GetMessage()
		resp.Op, resp.Path, resp.Data = req.Op, req.Path, content[:req.Size]
		return resp
	}).WithChecksum(true)
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, 1)
	defer cli.Close()
	for _, size := range []int{1, 4 << 10, 64 << 10} {
		dst := make([]byte, size)
		resp, err := cli.Call(&Message{Op: OpRead, Path: "/r", Size: int64(size), Dst: dst})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Data) != size || &resp.Data[0] != &dst[0] || resp.body != nil {
			t.Fatalf("%d-byte reply did not land in Dst (len %d, pooled %v)", size, len(resp.Data), resp.body != nil)
		}
		if !bytes.Equal(dst, content[:size]) {
			t.Fatalf("%d-byte reply corrupted in Dst", size)
		}
		resp.Release()
		resp, err = cli.Call(&Message{Op: OpRead, Path: "/r", Size: int64(size), Dst: dst[:size-1]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, content[:size]) || (size > 1 && &resp.Data[0] == &dst[0]) {
			t.Fatalf("%d-byte reply into a %d-byte Dst: want the whole payload in a pooled buffer", size, size-1)
		}
		resp.Release()
	}
}
