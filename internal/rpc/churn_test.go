package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func echoServer() *Server {
	return NewServer(func(req *Message) *Message {
		return &Message{Op: req.Op, Path: req.Path, Data: req.Data}
	})
}

// TestCallRetriesStalePooledConn: a server restart invalidates the client's
// idle pool; the next Call must transparently retry on a fresh connection
// instead of failing with the stale conn's error.
func TestCallRetriesStalePooledConn(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cli := Dial(addr, 2).Instrument(reg, nil)
	defer cli.Close()

	// Warm the pool so a conn sits idle across the restart.
	if _, err := cli.Call(&Message{Op: OpPing, Path: "warm"}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := echoServer()
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	resp, err := cli.Call(&Message{Op: OpPing, Path: "/after-restart"})
	if err != nil {
		t.Fatalf("call after server restart should retry on a fresh conn: %v", err)
	}
	if resp.Path != "/after-restart" {
		t.Fatalf("unexpected response %+v", resp)
	}
	// One stale conn → the retry path fired exactly once, and the
	// telemetry counters prove it.
	if got := reg.Counter("rpc_stale_retries_total").Value(); got != 1 {
		t.Fatalf("rpc_stale_retries_total = %d, want exactly 1", got)
	}
	if got := reg.Counter("rpc_calls_total").Value(); got != 2 {
		t.Fatalf("rpc_calls_total = %d, want 2 (warm + post-restart)", got)
	}
}

// TestServerRestartMidPool: many idle conns go stale at once; every
// subsequent call (including concurrent ones) must recover.
func TestServerRestartMidPool(t *testing.T) {
	const pool = 4
	// The first server holds every warm-up call until all of them are in
	// flight, so each needs a connection of its own and the idle pool ends
	// up with exactly pool conns whatever the scheduling.
	var warm sync.WaitGroup
	warm.Add(pool)
	srv := NewServer(func(req *Message) *Message {
		warm.Done()
		warm.Wait()
		return &Message{Op: req.Op, Path: req.Path}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cli := Dial(addr, pool).Instrument(reg, nil)
	defer cli.Close()

	// Fill the idle pool with pool connections.
	var wg sync.WaitGroup
	for i := 0; i < pool; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli.Call(&Message{Op: OpPing, Path: fmt.Sprintf("/warm%d", i)})
		}(i)
	}
	wg.Wait()
	srv.Close()

	// The second server holds its first pool requests until all of them
	// have arrived. Until then no healthy conn goes back to the idle pool,
	// so every arriving call finds only stale conns there: each of the pool
	// stale conns is popped by some call, fails, and is retried.
	var fresh sync.WaitGroup
	fresh.Add(pool)
	var arrived atomic.Int32
	srv2 := NewServer(func(req *Message) *Message {
		if arrived.Add(1) <= pool {
			fresh.Done()
			fresh.Wait()
		}
		return &Message{Op: req.Op, Path: req.Path, Data: req.Data}
	})
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	errs := make(chan error, 2*pool)
	for i := 0; i < 2*pool; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/p%d", i)
			resp, err := cli.Call(&Message{Op: OpWrite, Path: path})
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if resp.Path != path {
				errs <- fmt.Errorf("call %d: wrong response %q", i, resp.Path)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every stale conn took the retry path exactly once. (Evictions are
	// not bounded: acquire(fresh) cannot tell a stale idle conn from a healthy
	// one another call just returned.)
	if retries := reg.Counter("rpc_stale_retries_total").Value(); retries != pool {
		t.Fatalf("rpc_stale_retries_total = %d, want exactly %d (one per stale conn)", retries, pool)
	}
}

// TestCallAfterServerGone: the retry must not mask a genuinely dead server —
// when the fresh dial fails too, the call still errors.
func TestCallAfterServerGone(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(addr, 1)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err == nil {
		t.Fatal("call with server gone should fail")
	}
}

// TestConcurrentCallClose: closing the client while calls are in flight
// must not deadlock, panic, or race; calls either succeed or report an
// error.
func TestConcurrentCallClose(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 10; round++ {
		cli := Dial(addr, 2)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, err := cli.Call(&Message{Op: OpPing, Path: fmt.Sprintf("/r%d", i)}); err != nil {
						return // closed mid-flight: acceptable
					}
				}
			}(w)
		}
		cli.Close()
		wg.Wait()
	}
}

// TestRetryRespectsPoolCap: a retry storm must not leak connections past
// the pool cap — after recovery the client still works with its configured
// pool size.
func TestRetryRespectsPoolCap(t *testing.T) {
	srv := echoServer()
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(addr, 1)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := echoServer()
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer srv2.Close()
	// With a pool of one, the retry must evict the stale conn's slot
	// before dialing fresh; repeated sequential calls keep working.
	for i := 0; i < 5; i++ {
		if _, err := cli.Call(&Message{Op: OpPing}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	cli.mu.Lock()
	total := cli.total
	cli.mu.Unlock()
	if total > 1 {
		t.Fatalf("pool cap exceeded: total=%d, max=1", total)
	}
}
