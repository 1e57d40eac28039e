package ion

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

// TestDecodedWriteAllocationPin: a write that comes off the wire — decoded
// by the daemon's server into the store's fresh blocks and installed, or,
// through the copy adapter, into a pooled buffer and written — allocates
// nothing once the pools are warm, from a partial 4 KiB write to a 2 MiB
// span; so does a 2 MiB write over the blocks a 2 MiB read reply was just
// lent, whose lease the transport released before the write landed (one
// it kept would make every such write allocate the blocks it replaces).
// The file holds each write, and no stage or lease is left behind.
func TestDecodedWriteAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	const span = 2 << 20
	for _, side := range []struct {
		name    string
		wrap    func(*pfs.Store) Backend
		staging bool
	}{
		{"store", func(s *pfs.Store) Backend { return s }, true},
		{"adapter", func(s *pfs.Store) Backend { return struct{ Backend }{s} }, false},
	} {
		store := pfs.NewStore(pfs.Config{})
		d, cli := startOn(t, Config{ID: "pin"}, side.wrap(store), 1)
		if (d.stager != nil) != side.staging {
			t.Fatalf("%s: staging %v, want %v", side.name, d.stager != nil, side.staging)
		}
		payload := bytes.Repeat([]byte("staged!!"), span/8)
		dst := make([]byte, span)
		write := func(off int64, n int) func() {
			req := &rpc.Message{Op: rpc.OpWrite, Path: "/pin", Offset: off, Data: payload[:n]}
			return func() {
				resp, err := cli.Call(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Release()
			}
		}
		readReq := &rpc.Message{Op: rpc.OpRead, Path: "/pin", Size: span, Dst: dst}
		read := func() {
			resp, err := cli.Call(readReq)
			if err != nil || !bytes.Equal(resp.Data, payload) {
				t.Fatalf("%s: read back %d bytes: %v", side.name, len(resp.Data), err)
			}
			resp.Release()
		}
		write(0, span)()
		for _, row := range []struct {
			name string
			ops  []func()
		}{
			{"4 KiB write inside a block", []func(){write(100, 4096)}},
			{"512 KiB write of one block", []func(){write(0, 512<<10)}},
			{"2 MiB write", []func(){write(0, span)}},
			{"2 MiB read, then a 2 MiB write over its blocks", []func(){read, write(0, span)}},
		} {
			serve := func() {
				for _, op := range row.ops {
					op()
				}
			}
			for i := 0; i < 8; i++ {
				serve()
			}
			if got := testing.AllocsPerRun(50, serve); got > 0 {
				t.Errorf("%s %s: %.1f allocs per request, want 0", side.name, row.name, got)
			}
		}
		read()
		testkit.Eventually(t, "every stage and lease released", func() bool { return store.Leases() == 0 })
	}
}

// TestUninstalledStagesAreReleased: a staged write that is fenced, replayed
// from the dedup window or shed by a full queue never reaches the store,
// and its stage goes back with the request all the same.
func TestUninstalledStagesAreReleased(t *testing.T) {
	backend := &blockingBackend{
		Store:   pfs.NewStore(pfs.Config{}),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	d, cli := startOn(t, Config{ID: "ion0", DedupWindow: 8, Dispatchers: 1, QueueCap: 1}, backend, 4)
	write := func(m *rpc.Message) (*rpc.Message, error) {
		m.Op, m.Path, m.Data = rpc.OpWrite, "/u", []byte("payload")
		return cli.Call(m)
	}
	go func() { backend.release <- struct{}{} }()
	if _, err := write(&rpc.Message{ClientID: "c", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if resp, err := write(&rpc.Message{ClientID: "c", Seq: 1}); err != nil || !resp.Replayed {
		t.Fatalf("retry: want a replay, got %v", err)
	}
	d.SetFence(5)
	if _, err := write(&rpc.Message{Epoch: 4}); !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("want a fenced write, got %v", err)
	}
	// One write holds the only dispatch slot, one waits in the queue: the
	// next is shed.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write(&rpc.Message{})
		}()
		if i == 0 {
			<-backend.entered
		}
	}
	testkit.Eventually(t, "a queued write", func() bool { return d.QueueDepth() == 1 })
	if _, err := write(&rpc.Message{}); !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("want a shed write, got %v", err)
	}
	go func() {
		for range 2 {
			backend.release <- struct{}{}
		}
	}()
	wg.Wait()
	if got := d.Stats().Writes; got != 3 {
		t.Fatalf("%d writes reached the store, want 3", got)
	}
	testkit.Eventually(t, "every stage released", func() bool { return backend.Leases() == 0 })
}

// frameConn serves the same request frame b.N times as one connection,
// with the payload bytes left where the reader's buffer has them: what the
// kernel's socket copy costs is not the daemon's to time. Replies are
// counted and dropped.
type frameConn struct {
	net.Conn
	frame     []byte
	payload   [2]int // the payload's range in frame
	left, pos int
	replies   chan struct{}
	closed    chan struct{}
}

func (c *frameConn) Read(p []byte) (int, error) {
	if c.pos == len(c.frame) {
		if c.left == 0 {
			<-c.closed
			return 0, io.EOF
		}
		c.left, c.pos = c.left-1, 0
	}
	end := len(c.frame)
	if c.pos < c.payload[0] {
		end = c.payload[0]
	} else if c.pos < c.payload[1] {
		end = c.payload[1]
	}
	n := min(len(p), end-c.pos)
	if c.pos < c.payload[0] || c.pos >= c.payload[1] {
		copy(p, c.frame[c.pos:c.pos+n])
	}
	c.pos += n
	return n, nil
}

func (c *frameConn) Write(p []byte) (int, error) { c.replies <- struct{}{}; return len(p), nil }
func (c *frameConn) Close() error                { return nil }
func (c *frameConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }

// oneConnListener hands out its conn once, then blocks until closed.
type oneConnListener struct {
	conn   chan net.Conn
	closed chan struct{}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *oneConnListener) Close() error   { close(l.closed); return nil }
func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// BenchmarkWriteRequest2M is one 2 MiB write request decoded by the
// daemon's server, handled and released: landed in the store's fresh
// blocks and installed, and through the copy adapter a backend without
// staging gets, which lands it in a pooled buffer and copies it in with
// WriteAs. The frame's payload bytes are not copied in by the stand-in
// connection, as the kernel's socket read would be.
func BenchmarkWriteRequest2M(b *testing.B) {
	req := &rpc.Message{Op: rpc.OpWrite, Path: "/w", Data: make([]byte, 2<<20)}
	var frame bytes.Buffer
	if err := rpc.WriteMessage(&frame, req); err != nil {
		b.Fatal(err)
	}
	start := 4 + 1 + 1 + 4 + 8 + 2 + len(req.Path) + 8 + 8 + 4
	for _, side := range []struct {
		name string
		wrap func(*pfs.Store) Backend
	}{
		{"store", func(s *pfs.Store) Backend { return s }},
		{"adapter", func(s *pfs.Store) Backend { return struct{ Backend }{s} }},
	} {
		b.Run(side.name, func(b *testing.B) {
			store := pfs.NewStore(pfs.Config{})
			d := New(Config{ID: "bench"}, side.wrap(store))
			conn := &frameConn{frame: frame.Bytes(), payload: [2]int{start, start + len(req.Data)},
				left: b.N, replies: make(chan struct{}, 1), closed: make(chan struct{})}
			conn.pos = len(conn.frame)
			ln := &oneConnListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
			b.SetBytes(int64(len(req.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			ln.conn <- conn
			if _, err := d.StartOn(ln); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				<-conn.replies
			}
			b.StopTimer()
			close(conn.closed)
			d.Close()
			if m := store.Metrics(); m.WriteOps != int64(b.N) || store.Leases() != 0 {
				b.Fatalf("%d writes for %d requests, %d stages held", m.WriteOps, b.N, store.Leases())
			}
		})
	}
}
