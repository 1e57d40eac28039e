package fwd

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/latency"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Tests for reads decoded straight into the caller's window (rpc's
// Message.Dst): whatever a failed or abandoned exchange left there, the op
// returns the right bytes.

// rawION is an I/O node reduced to a TCP listener: every request decoded
// off a conn is handed to serve, which writes whatever bytes it likes back.
func rawION(t *testing.T, serve func(conn net.Conn, req *rpc.Message)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					req, err := rpc.ReadMessage(conn)
					if err != nil {
						return
					}
					serve(conn, req)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// windowFS is a direct path that keeps what the caller's window held when
// the fallback read reached it.
type windowFS struct {
	pfs.FileSystem
	mu   sync.Mutex
	seen []byte
}

func (f *windowFS) Read(path string, off int64, p []byte) (int, error) {
	f.mu.Lock()
	f.seen = append([]byte(nil), p...)
	f.mu.Unlock()
	return f.FileSystem.Read(path, off, p)
}

// TestCorruptReplyInWindowFailsOverToPFS: a read reply corrupted in flight
// is decoded into the caller's window before its CRC can be checked. The
// exchange fails with a checksum error — nothing of it is reported as read
// — the transport's retry meets the same, and the fallback rule hands the
// span to the PFS, which overwrites the window: the op returns the right
// bytes, counted once.
func TestCorruptReplyInWindowFailsOverToPFS(t *testing.T) {
	const size = 64 << 10
	good := bytes.Repeat([]byte{5}, size)
	store := pfs.NewStore(pfs.Config{})
	if err := store.Create("/r"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("/r", 0, good); err != nil {
		t.Fatal(err)
	}
	addr := rawION(t, func(conn net.Conn, req *rpc.Message) {
		var frame bytes.Buffer
		rpc.WriteMessageChecksum(&frame, &rpc.Message{Op: req.Op, Path: req.Path, Data: bytes.Repeat([]byte{0xEE}, int(req.Size))})
		raw := frame.Bytes()
		raw[len(raw)/2] ^= 0x10 // one payload bit, under the CRC
		conn.Write(raw)
	})
	direct := &windowFS{FileSystem: store}
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: direct, ChunkSize: size,
		RPC:       rpc.Options{CallTimeout: 5 * time.Second, MaxRetries: 1},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})

	buf := make([]byte, size)
	n, err := c.Read("/r", 0, buf)
	if err != nil || n != size {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, good) {
		t.Fatal("the op returned bytes of the corrupt reply")
	}
	if got := reg.Counter("rpc_checksum_errors_total").Value(); got != 2 {
		t.Fatalf("rpc_checksum_errors_total = %d, want 2 (the attempt and its retry)", got)
	}
	if !bytes.Contains(direct.seen, []byte{0xEE, 0xEE}) {
		t.Fatal("the window held none of the reply when the fallback reached it: the payload was not decoded in place")
	}
	if s := c.Stats(); s.FailoverOps != 1 || s.BytesIn != size {
		t.Fatalf("FailoverOps = %d, BytesIn = %d; want 1 and %d", s.FailoverOps, s.BytesIn, size)
	}
}

// TestHedgeWinsOverPrimaryDecodingIntoWindow: the primary read is in the
// middle of its reply — the transport is writing payload into the caller's
// window — when the hedge's direct read wins. The hedge's bytes reach the
// window only after the interrupted primary has returned, so the window is
// never written from two goroutines (the race detector watches) and ends
// up holding the PFS's bytes, not the half-delivered reply's.
func TestHedgeWinsOverPrimaryDecodingIntoWindow(t *testing.T) {
	const size = 256 << 10
	good := bytes.Repeat([]byte{5}, size)
	store := pfs.NewStore(pfs.Config{})
	if err := store.Create("/r"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("/r", 0, good); err != nil {
		t.Fatal(err)
	}
	addr := rawION(t, func(conn net.Conn, req *rpc.Message) {
		var frame bytes.Buffer
		rpc.WriteMessage(&frame, &rpc.Message{Op: req.Op, Path: req.Path, Data: bytes.Repeat([]byte{0xEE}, int(req.Size))})
		raw := frame.Bytes()
		// Dribble the reply: the primary keeps decoding until it is cut off.
		for len(raw) > 0 {
			k := min(len(raw), 1024)
			if _, err := conn.Write(raw[:k]); err != nil {
				return
			}
			raw = raw[k:]
			time.Sleep(200 * time.Microsecond)
		}
	})
	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: size,
		Dedup:     true,
		RPC:       rpc.Options{CallTimeout: 10 * time.Second},
		Hedge:     HedgeConfig{Enabled: true, Pct: 0.5, Budget: 1},
		Latency:   sk,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})
	seedLatency(sk, addr, 5*time.Millisecond)

	for round := 0; round < 3; round++ {
		buf := make([]byte, size)
		n, err := c.Read("/r", 0, buf)
		if err != nil || n != size {
			t.Fatalf("round %d: hedged read: n=%d err=%v", round, n, err)
		}
		if !bytes.Equal(buf, good) {
			t.Fatalf("round %d: the window holds bytes of the abandoned primary's reply", round)
		}
	}
	if got := reg.Counter("fwd_hedge_wins_total{app=\"app\"}").Value(); got != 3 {
		t.Fatalf("fwd_hedge_wins_total = %d, want 3", got)
	}
}
