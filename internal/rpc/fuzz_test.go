package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// FuzzReadMessage feeds arbitrary byte streams to the frame decoder. The
// contract under fuzz: never panic, and fail only with one of the typed
// protocol errors — io.EOF solely for an empty stream (clean end between
// frames), io.ErrUnexpectedEOF for every truncation, ErrFrameTooLarge for
// an oversized declared length, ErrChecksum for a bad trailer. A frame
// that parses must survive a re-encode/re-decode round trip.
func FuzzReadMessage(f *testing.F) {
	seed := func(m *Message, sum bool) {
		var buf bytes.Buffer
		var err error
		if sum {
			err = WriteMessageChecksum(&buf, m)
		} else {
			err = WriteMessage(&buf, m)
		}
		if err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])    // truncated mid-frame
		f.Add(raw[:len(raw)-1])    // truncated by one byte
		f.Add(append(raw, raw...)) // two frames back to back
		cp := append([]byte(nil), raw...)
		cp[len(cp)-1] ^= 0xFF
		f.Add(cp) // corrupted tail
	}
	seed(&Message{Op: OpPing}, false)
	seed(&Message{Op: OpWrite, Path: "/f", Offset: 64, Data: []byte("hello"), Trace: 3}, true)
	seed(&Message{Op: OpWrite, Path: "/f", ClientID: "fwd-0", Seq: 17, Replayed: true}, true)
	seed(&Message{Op: OpRead, Busy: true, RetryAfter: 500 * time.Microsecond}, false)
	seed(&Message{Op: OpWrite, Path: "/q", Data: []byte("hi"), Priority: 3}, true)
	seed(&Message{Op: OpWrite, Path: "/q", ClientID: "fwd-1", Seq: 2, Priority: 1}, false)
	seed(&Message{Op: OpWrite, Path: "/e", Data: []byte("hi"), Epoch: 42}, true)
	seed(&Message{Op: OpWrite, Path: "/e", Epoch: 7, Priority: 2, ClientID: "fwd-2", Seq: 3}, false)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})             // oversized length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})             // zero-length frame
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0x01, 0x02}) // declared 16, got 2
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, 1<<20)
	f.Add(append(huge, make([]byte, 1<<20)...)) // large all-zero body

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		// The same stream through a sink: the same outcome, and the sink's
		// lease released once, whether the decode failed or not.
		s := &cutSink{k: 1 + len(data)%4096}
		sm, serr := readMessage(bytes.NewReader(data), s.sink)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) || (err == nil && !sameMessage(flat(sm), m)) {
			t.Fatalf("sink decode: %v, plain decode: %v", serr, err)
		}
		sm.Release()
		s.releasedOnce(t, "fuzzed")
		if err != nil {
			switch {
			case err == io.EOF:
				if len(data) != 0 {
					t.Fatalf("io.EOF on non-empty input (%d bytes); want io.ErrUnexpectedEOF for truncation", len(data))
				}
			case errors.Is(err, io.ErrUnexpectedEOF),
				errors.Is(err, ErrFrameTooLarge),
				errors.Is(err, ErrChecksum):
				// typed protocol errors: fine
			default:
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A parsed frame must re-encode and re-decode to the same message.
		var buf bytes.Buffer
		if werr := WriteMessageChecksum(&buf, m); werr != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", werr)
		}
		m2, rerr := ReadMessage(&buf)
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if m.Op != m2.Op || m.Path != m2.Path || m.Offset != m2.Offset ||
			m.Size != m2.Size || m.Err != m2.Err || m.Trace != m2.Trace ||
			m.Busy != m2.Busy || m.RetryAfter != m2.RetryAfter ||
			m.ClientID != m2.ClientID || m.Seq != m2.Seq ||
			m.Replayed != m2.Replayed || m.Priority != m2.Priority ||
			m.Epoch != m2.Epoch ||
			!bytes.Equal(m.Data, m2.Data) {
			t.Fatalf("re-encode round trip mismatch:\n  first  %+v\n  second %+v", m, m2)
		}
	})
}

// FuzzMessageRoundTrip drives the encoder from arbitrary field values (with
// and without the checksum trailer) and asserts a lossless round trip for
// every message the validator accepts. A non-zero split lends the payload
// in segments of that many bytes instead of sending it as Data, and lands
// it in a sink's segments of that size on the way back.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint8(OpWrite), "/data/f", int64(4096), int64(0), []byte("chunk"), "", uint64(1), false, uint32(0), "fwd-3", uint64(9), false, uint8(0), uint64(0), true, uint16(0))
	f.Add(uint8(OpRead), "", int64(-1), int64(1<<40), []byte{}, "boom", uint64(0), true, uint32(250), "", uint64(0), true, uint8(3), uint64(17), false, uint16(0))
	f.Add(uint8(OpRead), "/r", int64(0), int64(9000), bytes.Repeat([]byte("lent"), 2500), "", uint64(5), false, uint32(0), "", uint64(0), false, uint8(0), uint64(0), true, uint16(3000))
	f.Fuzz(func(t *testing.T, op uint8, path string, offset, size int64, data []byte, errStr string, trace uint64, busy bool, retryUS uint32, clientID string, seq uint64, replayed bool, prio uint8, epoch uint64, sum bool, split uint16) {
		m := &Message{
			Op: Op(op), Path: path, Offset: offset, Size: size, Data: data,
			Err: errStr, Trace: trace, Busy: busy,
			RetryAfter: time.Duration(retryUS) * time.Microsecond,
			ClientID:   clientID, Seq: seq, Replayed: replayed, Priority: prio,
			Epoch: epoch,
		}
		sent := m
		if split > 0 {
			var segs [][]byte
			for rest := data; len(rest) > 0; rest = rest[min(len(rest), int(split)):] {
				segs = append(segs, rest[:min(len(rest), int(split))])
			}
			lent := *m
			lent.Data = nil
			lent.Lend(segs, nil)
			sent = &lent
		}
		var buf bytes.Buffer
		var err error
		if sum {
			err = WriteMessageChecksum(&buf, sent)
		} else {
			err = WriteMessage(&buf, sent)
		}
		if err != nil {
			if len(path) >= maxPath || len(errStr) >= maxErr || len(clientID) >= maxPath || len(data) > maxData {
				return // validator rejection: expected, nothing on the wire
			}
			t.Fatalf("write rejected a valid message: %v", err)
		}
		raw := bytes.Clone(buf.Bytes())
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		s := &cutSink{k: int(split)}
		sunk, err := readMessage(bytes.NewReader(raw), s.sink)
		if err != nil || !sameMessage(flat(sunk), got) {
			t.Fatalf("sink decode (split %d) differs from the plain one: %v", split, err)
		}
		sunk.Release()
		s.releasedOnce(t, "round trip")
		if got.Op != m.Op || got.Path != m.Path || got.Offset != m.Offset ||
			got.Size != m.Size || got.Err != m.Err || got.Trace != m.Trace ||
			got.Busy != m.Busy || got.RetryAfter != m.RetryAfter ||
			got.ClientID != m.ClientID || got.Seq != m.Seq ||
			got.Replayed != m.Replayed || got.Priority != m.Priority ||
			got.Epoch != m.Epoch ||
			!bytes.Equal(got.Data, m.Data) {
			t.Fatalf("round trip mismatch (sum=%v):\n  in  %+v\n  out %+v", sum, m, got)
		}
	})
}
