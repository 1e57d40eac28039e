package rpc

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cutSink lends every payload in fresh segments of at most k bytes (one
// segment when k is 0) and keeps each lease it lent, so a test can check
// every one was released exactly once.
type cutSink struct {
	k      int
	mu     sync.Mutex
	leases []*countedLease
}

type countedLease struct{ released atomic.Int32 }

func (l *countedLease) Release() { l.released.Add(1) }

func (s *cutSink) sink(m *Message, n int) ([][]byte, Lease) {
	var segs [][]byte
	for rest := n; rest > 0; {
		k := rest
		if s.k > 0 {
			k = min(k, s.k)
		}
		segs = append(segs, make([]byte, k))
		rest -= k
	}
	l := new(countedLease)
	s.mu.Lock()
	s.leases = append(s.leases, l)
	s.mu.Unlock()
	return segs, l
}

// releasedOnce fails unless every lease s lent was released exactly once.
func (s *cutSink) releasedOnce(t testing.TB, what string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range s.leases {
		if n := l.released.Load(); n != 1 {
			t.Fatalf("%s: lease %d of %d released %d times, want once", what, i, len(s.leases), n)
		}
	}
}

// readMessage is ReadMessage landing the payload in sink.
func readMessage(r io.Reader, sink Sink) (*Message, error) {
	w := frameReaders.Get().(*wire)
	defer frameReaders.Put(w)
	*w.lim = io.LimitedReader{R: r, N: 4}
	w.br.Reset(w.lim)
	w.held = 0
	return w.readFrame(nil, sink)
}

// flat returns m with its payload — Data and the segments a sink lent —
// as one Data, for comparing with a plain decode.
func flat(m *Message) *Message {
	cp := *m
	segs, _ := m.Lent()
	for _, seg := range segs {
		cp.Data = append(cp.Data, seg...)
	}
	return &cp
}

// TestSinkDecodeMatchesPlainDecode: a payload landed in a sink's segments —
// cut at every size from a byte to a block, and in one — is the payload a
// plain decode lands in one buffer, with every field beside it the same,
// for every trailer combination, checksum on and off, however the stream
// delivers it; and the message's Release releases the sink's lease once.
// A sink that declines leaves the payload to a pooled buffer.
func TestSinkDecodeMatchesPlainDecode(t *testing.T) {
	for _, size := range []int{1, 4 << 10, 8<<10 + 5, 2 << 20} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*31 + size)
		}
		for combo := 0; combo < 32; combo++ {
			m := &Message{Op: OpWrite, Path: "/sink", Offset: 1 << 30, Data: data, Trace: 5}
			if combo&1 != 0 {
				m.ClientID, m.Seq = "app#1", 9
			}
			if combo&2 != 0 {
				m.Priority = 2
			}
			if combo&4 != 0 {
				m.Epoch = 44
			}
			if combo&8 != 0 {
				m.Err = "e"
			}
			if combo&16 != 0 {
				m.Busy, m.Replayed, m.RetryAfter = true, true, time.Millisecond
			}
			for _, sum := range []bool{false, true} {
				var enc bytes.Buffer
				if err := writeFrame(&enc, m, sum); err != nil {
					t.Fatal(err)
				}
				frame := enc.Bytes()
				want, err := ReadMessage(bytes.NewReader(frame))
				if err != nil {
					t.Fatal(err)
				}
				cuts := []int{0, 1, 7, 4096, 512 << 10}
				if size > 64<<10 {
					cuts = cuts[3:]
				}
				for _, k := range cuts {
					for _, step := range []int{0, 4099} {
						s := &cutSink{k: k}
						got, err := readMessage(&splitReader{data: frame, step: step}, s.sink)
						if err != nil {
							t.Fatalf("size %d combo %d sum %v cut %d: %v", size, combo, sum, k, err)
						}
						if got.Data != nil || !sameMessage(flat(got), want) {
							t.Fatalf("size %d combo %d sum %v cut %d step %d: sink decode differs from the plain one", size, combo, sum, k, step)
						}
						got.Release()
						s.releasedOnce(t, "decoded")
					}
				}
				declined, err := readMessage(bytes.NewReader(frame), func(*Message, int) ([][]byte, Lease) { return nil, nil })
				if err != nil || declined.body == nil || !sameMessage(declined, want) {
					t.Fatalf("size %d combo %d: a declining sink should leave the payload to a pooled buffer (%v)", size, combo, err)
				}
				declined.Release()
				want.Release()
			}
		}
	}
}

// TestFailedSinkDecodeReleasesOnce: a frame cut off anywhere after its
// payload began, or whose checksum fails on a flipped payload or trailer
// byte, fails the decode and releases the sink's lease exactly once.
func TestFailedSinkDecodeReleasesOnce(t *testing.T) {
	m := &Message{Op: OpWrite, Path: "/f", Data: bytes.Repeat([]byte("payload!"), 8<<10), ClientID: "c", Seq: 1, Epoch: 3}
	var enc bytes.Buffer
	if err := writeFrame(&enc, m, true); err != nil {
		t.Fatal(err)
	}
	frame := enc.Bytes()
	start := 4 + headLen + len(m.Path) + midLen // the payload's first byte
	var inputs [][]byte
	for _, end := range []int{start + 1, start + 4096, start + len(m.Data), len(frame) - 4, len(frame) - 1} {
		inputs = append(inputs, frame[:end])
	}
	for _, at := range []int{start, start + len(m.Data)/2, len(frame) - 1} {
		cp := bytes.Clone(frame)
		cp[at] ^= 0x10
		inputs = append(inputs, cp)
	}
	for i, in := range inputs {
		s := &cutSink{k: 4096}
		got, err := readMessage(bytes.NewReader(in), s.sink)
		if got != nil || !(errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrChecksum)) {
			t.Fatalf("input %d: want a truncation or checksum error, got %v", i, err)
		}
		if len(s.leases) != 1 {
			t.Fatalf("input %d: the sink lent %d leases, want 1", i, len(s.leases))
		}
		s.releasedOnce(t, "failed decode")
	}
}

// TestServeConnReleasesSharedLeaseOnce: a handler that answers with the
// request itself, or with a shallow copy that shares its sink lease, has
// the payload echoed from the sink's segments and the lease released once.
func TestServeConnReleasesSharedLeaseOnce(t *testing.T) {
	for _, copied := range []bool{false, true} {
		s := &cutSink{k: 4096}
		srv := NewServer(func(req *Message) *Message {
			if !copied {
				return req
			}
			resp := GetMessage()
			*resp = *req
			return resp
		}).WithSink(s.sink)
		addr, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		cli := Dial(addr, 1)
		payload := bytes.Repeat([]byte("echo"), 5000)
		resp, err := cli.Call(&Message{Op: OpWrite, Path: "/e", Data: payload})
		if err != nil || !bytes.Equal(resp.Data, payload) {
			t.Fatalf("copied %v: echo of %d bytes: %v", copied, len(resp.Data), err)
		}
		resp.Release()
		cli.Close()
		srv.Close()
		s.releasedOnce(t, "echoed")
	}
}
