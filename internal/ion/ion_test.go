package ion

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/agios"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

func startDaemon(t *testing.T, cfg Config, store *pfs.Store) (*Daemon, *rpc.Client) {
	t.Helper()
	return startOn(t, cfg, store, 2)
}

// startOn starts a daemon over backend and dials it with a pool of conns
// connections; both are torn down with the test.
func startOn(t *testing.T, cfg Config, backend Backend, conns int) (*Daemon, *rpc.Client) {
	t.Helper()
	d := New(cfg, backend)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	cli := rpc.Dial(addr, conns)
	t.Cleanup(func() { cli.Close() })
	return d, cli
}

func TestPing(t *testing.T) {
	_, cli := startDaemon(t, Config{ID: "ion0"}, pfs.NewStore(pfs.Config{}))
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "ion0" {
		t.Fatalf("ping: %q", resp.Data)
	}
}

func TestWriteReadThroughDaemon(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d, cli := startDaemon(t, Config{ID: "ion0"}, store)

	payload := []byte("forwarded payload")
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: 0, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Size != int64(len(payload)) {
		t.Fatalf("write size = %d", resp.Size)
	}
	// Data visible at the backend.
	buf := make([]byte, len(payload))
	if _, err := store.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("backend content %q", buf)
	}
	// Read back through the daemon.
	resp, err = cli.Call(&rpc.Message{Op: rpc.OpRead, Path: "/f", Offset: 0, Size: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, payload) {
		t.Fatalf("read back %q", resp.Data)
	}
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.BytesIn != int64(len(payload)) || st.BytesOut != int64(len(payload)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestShortReadPropagates(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	_, cli := startDaemon(t, Config{ID: "ion0"}, store)
	store.Write("/f", 0, []byte("abc"))
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpRead, Path: "/f", Offset: 0, Size: 10})
	if err == nil || !strings.Contains(err.Error(), "read past end") {
		t.Fatalf("want short-read error, got %v", err)
	}
	if string(resp.Data) != "abc" {
		t.Fatalf("partial data should still arrive, got %q", resp.Data)
	}
}

// TestReadSizeOutOfRangeRejected sends raw frames whose read size no
// buffer could back. An unchecked size panics in the allocator on the
// connection goroutine, which takes the whole daemon process down; each
// frame must get an error response instead, and the daemon keep serving.
func TestReadSizeOutOfRangeRejected(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d, cli := startDaemon(t, Config{ID: "ion0"}, store)
	store.Write("/f", 0, []byte("still here"))

	for _, size := range []int64{1 << 50, rpc.MaxData + 1, -1} {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := rpc.WriteMessage(conn, &rpc.Message{Op: rpc.OpRead, Path: "/f", Size: size}); err != nil {
			t.Fatal(err)
		}
		resp, err := rpc.ReadMessage(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("size %d: no response: %v", size, err)
		}
		if !strings.Contains(resp.Err, "out of range") || len(resp.Data) != 0 {
			t.Fatalf("size %d: want an out-of-range error, got Err=%q with %d data bytes", size, resp.Err, len(resp.Data))
		}
	}
	if st := d.Stats(); st.Reads != 0 {
		t.Fatalf("rejected reads were counted as served: %+v", st)
	}

	resp, err := cli.Call(&rpc.Message{Op: rpc.OpRead, Path: "/f", Size: 10})
	if err != nil {
		t.Fatalf("daemon stopped serving after the rejected frames: %v", err)
	}
	if string(resp.Data) != "still here" {
		t.Fatalf("read back %q", resp.Data)
	}
}

// TestWriteOffsetOutOfRangeRejected: a write's offset comes off the wire
// too, and the store sizes a file's block table from the write's end — an
// offset near 2^62 used to take the process down with an out-of-memory
// fatal error no recover catches. Each frame must get the store's
// out-of-range error instead, stage nothing, and the daemon keep serving.
func TestWriteOffsetOutOfRangeRejected(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d, cli := startDaemon(t, Config{ID: "ion0"}, store)
	for _, off := range []int64{1 << 62, math.MaxInt64 - 3, -1} {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := rpc.WriteMessage(conn, &rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: off, Data: []byte("boom")}); err != nil {
			t.Fatal(err)
		}
		resp, err := rpc.ReadMessage(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("offset %d: no response: %v", off, err)
		}
		if !strings.Contains(resp.Err, "out of range") || resp.Size != 0 {
			t.Fatalf("offset %d: want an out-of-range error, got Err=%q with size %d", off, resp.Err, resp.Size)
		}
	}
	if m := store.Metrics(); m.WriteOps != 0 || len(store.List()) != 0 {
		t.Fatalf("rejected writes reached the store: %+v, files %v", m, store.List())
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Data: []byte("still here")}); err != nil {
		t.Fatalf("daemon stopped serving after the rejected frames: %v", err)
	}
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpRead, Path: "/f", Size: 10})
	if err != nil || string(resp.Data) != "still here" {
		t.Fatalf("read back %q: %v", resp.Data, err)
	}
	testkit.Eventually(t, "every stage and lease released", func() bool { return store.Leases() == 0 })
}

func TestMetadataOps(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	_, cli := startDaemon(t, Config{ID: "ion0"}, store)
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpCreate, Path: "/meta"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/meta", Offset: 0, Data: []byte("xy")}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpStat, Path: "/meta"})
	if err != nil || resp.Size != 2 {
		t.Fatalf("stat: %+v %v", resp, err)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpFsync, Path: "/meta"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpRemove, Path: "/meta"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpStat, Path: "/meta"}); err == nil {
		t.Fatal("stat after remove should fail")
	}
}

func TestUnsupportedOp(t *testing.T) {
	_, cli := startDaemon(t, Config{ID: "ion0"}, pfs.NewStore(pfs.Config{}))
	if _, err := cli.Call(&rpc.Message{Op: rpc.Op(99)}); err == nil {
		t.Fatal("unsupported op should error")
	}
}

func TestAIOLIAggregationAtDaemon(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	sched := agios.NewAIOLI(1 << 20)
	d := New(Config{ID: "agg", Scheduler: sched, Dispatchers: 1}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Many concurrent contiguous writes: the daemon should merge at least
	// some of them before dispatching to the PFS.
	const n = 32
	const sz = 1024
	var wg sync.WaitGroup
	cli := rpc.Dial(addr, 8)
	defer cli.Close()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, sz)
			if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/big", Offset: int64(i) * sz, Data: payload}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Correctness: every byte landed where it should.
	buf := make([]byte, n*sz)
	if _, err := store.Read("/big", 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[i*sz] != byte(i) || buf[i*sz+sz-1] != byte(i) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
	st := d.Stats()
	if st.Writes != n {
		t.Fatalf("writes = %d", st.Writes)
	}
	if st.Dispatches > st.Writes {
		t.Fatalf("dispatches (%d) exceed writes (%d)", st.Dispatches, st.Writes)
	}
	t.Logf("aggregation: %d client writes → %d dispatches (%d merged)", st.Writes, st.Dispatches, st.Aggregated)
}

func TestConcurrentMixedLoad(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d := New(Config{ID: "mix", Scheduler: agios.NewSJF(), Dispatchers: 4}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := rpc.Dial(addr, 2)
			defer cli.Close()
			path := fmt.Sprintf("/w%d", w)
			for i := 0; i < 40; i++ {
				payload := bytes.Repeat([]byte{byte(w)}, 64)
				if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: path, Offset: int64(i) * 64, Data: payload}); err != nil {
					t.Error(err)
					return
				}
			}
			resp, err := cli.Call(&rpc.Message{Op: rpc.OpRead, Path: path, Offset: 0, Size: 40 * 64})
			if err != nil {
				t.Error(err)
				return
			}
			for _, b := range resp.Data {
				if b != byte(w) {
					t.Errorf("worker %d read corruption", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCloseIdempotentAndRejectsAfter(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d := New(Config{ID: "x"}, store)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.Dial(addr, 1)
	defer cli.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpPing}); err == nil {
		t.Fatal("call after daemon close should fail")
	}
}

func TestDefaults(t *testing.T) {
	d := New(Config{ID: "d"}, pfs.NewStore(pfs.Config{}))
	if d.SchedulerName() != "FIFO" {
		t.Fatalf("default scheduler = %s", d.SchedulerName())
	}
	if d.cfg.Dispatchers != 2 {
		t.Fatalf("default dispatchers = %d", d.cfg.Dispatchers)
	}
	if d.ID() != "d" || d.Addr() != "" {
		t.Fatal("identity accessors wrong")
	}
}
