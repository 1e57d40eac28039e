package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// encodeV1 is an independent re-implementation of the protocol-version-1
// frame layout (pre-integrity: no flag-gated trailers existed). The
// wire-compat test compares WriteMessage output against it byte-for-byte.
func encodeV1(m *Message) []byte {
	n := 1 + 1 + 4 + 8 + 2 + len(m.Path) + 8 + 8 + 4 + len(m.Data) + 2 + len(m.Err)
	buf := make([]byte, 0, 4+n)
	var u32 [4]byte
	var u64 [8]byte
	var u16 [2]byte
	binary.BigEndian.PutUint32(u32[:], uint32(n))
	buf = append(buf, u32[:]...)
	buf = append(buf, byte(m.Op))
	var flags byte
	if m.Busy {
		flags |= 1 << 0
	}
	buf = append(buf, flags)
	binary.BigEndian.PutUint32(u32[:], retryAfterMicros(m.RetryAfter))
	buf = append(buf, u32[:]...)
	binary.BigEndian.PutUint64(u64[:], m.Trace)
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint16(u16[:], uint16(len(m.Path)))
	buf = append(buf, u16[:]...)
	buf = append(buf, m.Path...)
	binary.BigEndian.PutUint64(u64[:], uint64(m.Offset))
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(m.Size))
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(m.Data)))
	buf = append(buf, u32[:]...)
	buf = append(buf, m.Data...)
	binary.BigEndian.PutUint16(u16[:], uint16(len(m.Err)))
	buf = append(buf, u16[:]...)
	buf = append(buf, m.Err...)
	return buf
}

// TestZeroValueWireIdenticalToV1 is the acceptance proof that all integrity
// features default off: a message without a dedup identity, written without
// checksums, encodes byte-identically to the pre-integrity protocol.
func TestZeroValueWireIdenticalToV1(t *testing.T) {
	msgs := []*Message{
		{Op: OpPing},
		{Op: OpWrite, Path: "/data/f.bin", Offset: 1 << 40, Data: []byte("payload"), Trace: 77},
		{Op: OpRead, Path: "x", Offset: -1, Size: 4096},
		{Op: OpRemove, Path: "/gone", Err: "no such file"},
		{Op: OpWrite, Busy: true, RetryAfter: 250 * time.Microsecond, Path: "/shed"},
	}
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("msg %d: write: %v", i, err)
		}
		want := encodeV1(m)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("msg %d: zero-value frame differs from protocol v1:\n  got  %x\n  want %x", i, buf.Bytes(), want)
		}
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Op: OpPing},
		{Op: OpWrite, Path: "/f", Offset: 8, Data: []byte("abc"), Trace: 9},
		{Op: OpWrite, Path: "/f", ClientID: "fwd-1", Seq: 42},
		{Op: OpWrite, Path: "/f", ClientID: "fwd-1", Seq: 42, Replayed: true},
		{Op: OpWrite, Seq: 1}, // seq without id still carries the trailer
		{Op: OpRead, Busy: true, RetryAfter: time.Millisecond, ClientID: "c", Seq: 7},
	}
	for i, m := range msgs {
		for _, sum := range []bool{false, true} {
			var buf bytes.Buffer
			var err error
			if sum {
				err = WriteMessageChecksum(&buf, m)
			} else {
				err = WriteMessage(&buf, m)
			}
			if err != nil {
				t.Fatalf("msg %d sum=%v: write: %v", i, sum, err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("msg %d sum=%v: read: %v", i, sum, err)
			}
			if got.Op != m.Op || got.Path != m.Path || got.Offset != m.Offset ||
				got.Size != m.Size || got.Err != m.Err || got.Trace != m.Trace ||
				got.Busy != m.Busy || got.RetryAfter != m.RetryAfter ||
				got.ClientID != m.ClientID || got.Seq != m.Seq ||
				got.Replayed != m.Replayed || !bytes.Equal(got.Data, m.Data) {
				t.Fatalf("msg %d sum=%v: round trip mismatch:\n  in  %+v\n  out %+v", i, sum, m, got)
			}
		}
	}
}

// TestChecksumDetectsCorruption flips every body byte (and every trailer
// byte) of a checksummed frame in turn and asserts the reader rejects it.
// The flags byte (offset 5) is excluded: flipping its checksum-present bit
// makes the trailer invisible to the reader — an inherent limit of in-band
// presence negotiation, documented in DESIGN.md.
func TestChecksumDetectsCorruption(t *testing.T) {
	m := &Message{Op: OpWrite, Path: "/f", Offset: 8, Data: []byte("abcdefgh"), ClientID: "c1", Seq: 3, Trace: 5}
	var buf bytes.Buffer
	if err := WriteMessageChecksum(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const flagsOff = 5 // 4-byte length prefix + opcode
	for i := 4; i < len(raw); i++ {
		if i == flagsOff {
			continue
		}
		cp := append([]byte(nil), raw...)
		cp[i] ^= 0x40
		if _, err := ReadMessage(bytes.NewReader(cp)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", i, err)
		}
	}
	// Unflipped control: still reads clean.
	if _, err := ReadMessage(bytes.NewReader(raw)); err != nil {
		t.Fatalf("control read: %v", err)
	}
}

// TestChecksumInterop: a checksumming peer and a plain peer interoperate in
// both directions, because readers verify-if-present.
func TestChecksumInterop(t *testing.T) {
	for _, tc := range []struct{ serverSum, clientSum bool }{
		{true, false}, {false, true}, {true, true},
	} {
		srv := NewServer(func(req *Message) *Message {
			resp := *req
			resp.Err = ""
			return &resp
		}).WithChecksum(tc.serverSum)
		addr, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		cli := Dial(addr, 1).WithOptions(Options{WireChecksum: tc.clientSum})
		resp, err := cli.Call(&Message{Op: OpWrite, Path: "/x", Data: []byte("d"), ClientID: "c", Seq: 1})
		if err != nil {
			t.Fatalf("server=%v client=%v: %v", tc.serverSum, tc.clientSum, err)
		}
		if resp.Path != "/x" || resp.ClientID != "c" || resp.Seq != 1 {
			t.Fatalf("server=%v client=%v: fields lost: %+v", tc.serverSum, tc.clientSum, resp)
		}
		cli.Close()
		srv.Close()
	}
}

// TestServerRejectsCorruptFrame: a corrupted checksummed request makes the
// server count a checksum error and discard the connection without
// responding — from the peer's side, a transport failure.
func TestServerRejectsCorruptFrame(t *testing.T) {
	reg := telemetry.New()
	srv := NewServer(func(req *Message) *Message {
		resp := *req
		return &resp
	}).Instrument(reg, "")
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var buf bytes.Buffer
	if err := WriteMessageChecksum(&buf, &Message{Op: OpWrite, Path: "/f", Data: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-6] ^= 0x01 // corrupt a payload byte under the CRC

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadMessage(conn); err == nil {
		t.Fatal("server answered a corrupt frame; want connection discarded")
	}
	if got := reg.Snapshot().Counters["rpc_checksum_errors_total"]; got != 1 {
		t.Fatalf("rpc_checksum_errors_total = %d, want 1", got)
	}
}

// TestClientRejectsCorruptResponse: a corrupted checksummed response is a
// transport failure on the client — counted, conn discarded, and the call
// ends in ErrUnavailable after that one exchange.
func TestClientRejectsCorruptResponse(t *testing.T) {
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
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					req, err := ReadMessage(conn)
					if err != nil {
						return
					}
					var buf bytes.Buffer
					if err := WriteMessageChecksum(&buf, &Message{Op: req.Op, Path: req.Path}); err != nil {
						return
					}
					raw := buf.Bytes()
					raw[len(raw)-5] ^= 0x80 // corrupt under the CRC
					if _, err := conn.Write(raw); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	reg := telemetry.New()
	cli := Dial(ln.Addr().String(), 1).Instrument(reg, nil)
	defer cli.Close()
	_, err = cli.Call(&Message{Op: OpPing, Path: "/p"})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	// The conn was a fresh dial, so no stale re-dial: one exchange, one
	// checksum error, and the conn is gone.
	if got := reg.Snapshot().Counters["rpc_checksum_errors_total"]; got != 1 {
		t.Fatalf("rpc_checksum_errors_total = %d, want 1", got)
	}
	cli.mu.Lock()
	idle, total := len(cli.idle), cli.total
	cli.mu.Unlock()
	if idle != 0 || total != 0 {
		t.Fatalf("conn that delivered a corrupt reply kept: idle=%d total=%d", idle, total)
	}
}

// TestTruncatedFramesUniformError: every mid-frame cut of every frame shape
// surfaces io.ErrUnexpectedEOF — never io.EOF, which is reserved for a
// clean end of stream between frames.
func TestTruncatedFramesUniformError(t *testing.T) {
	msgs := []*Message{
		{Op: OpWrite, Path: "/f", Data: []byte("abcdef")},
		{Op: OpWrite, Path: "/f", Data: []byte("abcdef"), ClientID: "c", Seq: 9},
	}
	for i, m := range msgs {
		for _, sum := range []bool{false, true} {
			var buf bytes.Buffer
			var err error
			if sum {
				err = WriteMessageChecksum(&buf, m)
			} else {
				err = WriteMessage(&buf, m)
			}
			if err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			for cut := 1; cut < len(raw); cut++ {
				_, err := ReadMessage(bytes.NewReader(raw[:cut]))
				if err == nil {
					t.Fatalf("msg %d sum=%v: truncation at %d read clean", i, sum, cut)
				}
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("msg %d sum=%v: truncation at %d: want io.ErrUnexpectedEOF, got %v", i, sum, cut, err)
				}
			}
		}
	}
	// Empty stream is the one clean EOF.
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

// TestDeclaredLengthTooShort covers the other truncation family: a frame
// whose declared length is too small for the fields it claims to carry.
func TestDeclaredLengthTooShort(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Op: OpWrite, Path: "/f", Data: []byte("abcdef"), ClientID: "c", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for n := 0; n < len(raw)-4; n++ {
		cp := append([]byte(nil), raw[:4+n]...)
		binary.BigEndian.PutUint32(cp[0:], uint32(n))
		_, err := ReadMessage(bytes.NewReader(cp))
		if err == nil {
			continue // shorter frames can still be self-consistent
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("declared len %d: want io.ErrUnexpectedEOF, got %v", n, err)
		}
	}
}
