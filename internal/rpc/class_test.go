package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCallClassTableBusyStaleRetryBreaker is the class table as a test: one
// row per way a Call can end, plus the stale pooled conn, each checking the
// class and its errors.Is identity, what the class fed the breaker, the
// transport and stale retries it cost, the dials, whether the conn went
// back to the pool, and the busy counter. The oracle is the table in call's
// doc: answers are breaker successes and never retried; local, closed and
// interrupted give no verdict; unavailable is one breaker failure per
// attempt and 1+MaxRetries attempts; a dead pooled conn costs one more pass
// that is neither.
func TestCallClassTableBusyStaleRetryBreaker(t *testing.T) {
	const maxRetries = 2
	answering := NewServer(func(req *Message) *Message {
		resp := &Message{Op: req.Op, Path: req.Path}
		switch req.Path {
		case "/app":
			resp.Err = "boom"
		case "/busy":
			resp.Busy, resp.RetryAfter = true, 3*time.Millisecond
		case "/fenced":
			resp.Err, resp.Epoch = StaleEpochErrText(req.Epoch, 9), 9
		}
		return resp
	})
	live, err := answering.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer answering.Close()
	dead := echoServer()
	deadAddr, err := dead.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	// The stale row's server restarts on its address once the client has
	// pooled a conn to it.
	restarting := echoServer()
	staleAddr, err := restarting.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { restarting.Close() }()
	restart := func(t *testing.T, c *Client, _ *Interrupt) {
		if _, err := c.Call(&Message{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
		restarting.Close()
		restarting = echoServer()
		if _, err := restarting.Listen(staleAddr); err != nil {
			t.Fatalf("rebind %s: %v", staleAddr, err)
		}
	}

	const (
		success = 0 // the breaker's failure streak (1 before the call) is reset
		none    = 1 // untouched
	)
	rows := []struct {
		name  string
		addr  string
		path  string
		prep  func(t *testing.T, c *Client, it *Interrupt)
		class Class
		is    error // the one sentinel errors.Is matches; nil = none
		fails int   // the breaker's failure streak after the call
		// counters moved by the call, and conns idle in the pool after it
		dials, retries, stale, busy int64
		idle                        int
	}{
		{name: "ok", addr: live, path: "/ok", class: ClassOK, fails: success, dials: 1, idle: 1},
		{name: "app", addr: live, path: "/app", class: ClassApp, fails: success, dials: 1, idle: 1},
		{name: "busy", addr: live, path: "/busy", class: ClassBusy, is: ErrBusy, fails: success, dials: 1, busy: 1, idle: 1},
		{name: "fenced", addr: live, path: "/fenced", class: ClassFenced, is: ErrStaleEpoch, fails: success, dials: 1, idle: 1},
		{name: "local", addr: live, path: strings.Repeat("p", maxPath), class: ClassLocal, fails: none},
		{name: "closed", addr: live, path: "/ok", class: ClassClosed, is: ErrClosed, fails: none,
			prep: func(_ *testing.T, c *Client, _ *Interrupt) { c.Close() }},
		{name: "interrupted", addr: live, path: "/ok", class: ClassInterrupted, is: ErrInterrupted, fails: none, dials: 1,
			prep: func(_ *testing.T, _ *Client, it *Interrupt) { it.Fire() }},
		{name: "unavailable", addr: deadAddr, path: "/ok", class: ClassUnavailable, is: ErrUnavailable,
			fails: 1 + (1 + maxRetries), dials: 1 + maxRetries, retries: maxRetries},
		{name: "stale pooled conn", addr: staleAddr, path: "/ok", prep: restart, class: ClassOK, fails: success,
			dials: 1, stale: 1, idle: 1},
	}
	sentinelsAll := []error{ErrBusy, ErrStaleEpoch, ErrClosed, ErrInterrupted, ErrUnavailable}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := telemetry.New()
			c := Dial(row.addr, 2).WithOptions(Options{
				CallTimeout: 2 * time.Second, MaxRetries: maxRetries,
				BreakerThreshold: 100, BreakerCooldown: time.Minute,
			}).Instrument(reg, nil)
			defer c.Close()
			it := new(Interrupt)
			if row.prep != nil {
				row.prep(t, c, it)
			}
			counters := func() [4]int64 {
				var v [4]int64
				for i, name := range []string{"rpc_dials_total", "rpc_retries_total", "rpc_stale_retries_total", "rpc_busy_responses_total"} {
					v[i] = reg.Counter(name).Value()
				}
				return v
			}
			before := counters()
			c.brk.mu.Lock()
			c.brk.fails = 1
			c.brk.mu.Unlock()

			resp, err := c.CallInterruptible(&Message{Op: OpWrite, Path: row.path, Epoch: 4}, it)

			if got := ClassOf(err); got != row.class {
				t.Fatalf("class %d, want %d (err %v)", got, row.class, err)
			}
			if (resp != nil) != (row.class <= ClassFenced) {
				t.Errorf("response %v with class %d: an answer comes with its response, nothing else does", resp, row.class)
			}
			for _, s := range sentinelsAll {
				if errors.Is(err, s) != (s == row.is) {
					t.Errorf("errors.Is(%v, %v) = %v", err, s, !(s == row.is))
				}
			}
			if err != nil {
				e := err.(*Error)
				if e.Addr != row.addr {
					t.Errorf("Addr %q, want %q", e.Addr, row.addr)
				}
				if row.class == ClassBusy && e.RetryAfter != 3*time.Millisecond {
					t.Errorf("RetryAfter %v, want the server's 3ms", e.RetryAfter)
				}
				if row.class == ClassFenced && e.Fence != 9 {
					t.Errorf("Fence %d, want the server's floor 9", e.Fence)
				}
			}
			c.brk.mu.Lock()
			fails, state := c.brk.fails, c.brk.state
			c.brk.mu.Unlock()
			if fails != row.fails || state != BreakerClosed {
				t.Errorf("breaker failure streak %d (%v), want %d (closed)", fails, state, row.fails)
			}
			after := counters()
			got := [4]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}
			if want := [4]int64{row.dials, row.retries, row.stale, row.busy}; got != want {
				t.Errorf("dials/retries/stale retries/busy responses moved %v, want %v", got, want)
			}
			c.mu.Lock()
			idle, total := len(c.idle), c.total
			c.mu.Unlock()
			if idle != row.idle || total != idle {
				t.Errorf("pool idle=%d total=%d, want %d and no conn held", idle, total, row.idle)
			}
		})
	}
}
