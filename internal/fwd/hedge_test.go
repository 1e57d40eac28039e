package fwd

// Hedged-request tests: the client contract (opt-in validation, budget,
// win accounting) and the interplay with the daemon's dedup window and
// epoch fencing — the two integrity planes a duplicated write must not
// be able to defeat.

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agios"
	"repro/internal/faultnet"
	"repro/internal/ion"
	"repro/internal/latency"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/testkit"
)

// slowDaemon starts one real I/O-node daemon behind a faultnet injector,
// so tests can make it arbitrarily (gray-)slow while its dedup window and
// fence enforcement stay fully real.
func slowDaemon(t *testing.T, cfg ion.Config, store *pfs.Store, inj *faultnet.Injector) (*ion.Daemon, string) {
	t.Helper()
	d := ion.New(cfg, store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.StartOn(faultnet.WrapListener(ln, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, addr
}

// seedLatency fills the shared sketch so the hedge deadline for addr is
// known before the first real sample lands.
func seedLatency(sk *latency.Sketch, addr string, d time.Duration) {
	for i := 0; i < latency.DefaultWindow; i++ {
		sk.Observe(addr, d)
	}
}

func TestHedgeRequiresDedup(t *testing.T) {
	_, err := NewClient(Config{
		AppID:  "app",
		Direct: pfs.NewStore(pfs.Config{}),
		Hedge:  HedgeConfig{Enabled: true},
	})
	if err == nil {
		t.Fatal("Hedge.Enabled without Dedup must be rejected")
	}
}

// TestHedgedWriteDedupInFlight drives the hot interplay: the hedge is a
// same-stamp duplicate launched while the primary is still in flight on a
// gray-slow daemon, so the daemon's dedup window must coalesce the pair
// into one apply and answer the loser with a replay.
func TestHedgedWriteDedupInFlight(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	inj := faultnet.NewInjector(faultnet.Plan{})
	d, addr := slowDaemon(t, ion.Config{ID: "ion0", Scheduler: agios.NewFIFO(), DedupWindow: 64}, store, inj)

	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: 256,
		Dedup:     true,
		RPC:       rpc.Options{CallTimeout: 5 * time.Second},
		Hedge:     HedgeConfig{Enabled: true, Pct: 0.5, Budget: 1},
		Latency:   sk,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})
	if err := c.Create("/h"); err != nil {
		t.Fatal(err)
	}
	seedLatency(sk, addr, 2*time.Millisecond)

	// Every I/O on the daemon now pays 40ms: the primary write is far past
	// the ~2ms hedge deadline when the duplicate launches, and both
	// attempts reach the daemon.
	inj.Set(faultnet.Plan{Kind: faultnet.Slow, Delay: 40 * time.Millisecond})
	payload := bytes.Repeat([]byte{9}, 200) // one span
	n, err := c.Write("/h", 0, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("hedged write: n=%d err=%v", n, err)
	}
	inj.Set(faultnet.Plan{})

	if got := reg.Counter("fwd_hedge_launched_total{app=\"app\"}").Value(); got < 1 {
		t.Fatalf("fwd_hedge_launched_total = %d, want ≥ 1", got)
	}
	// The dedup window turned the duplicate into a replay: exactly one
	// apply, two answers. The losing attempt drains in the background, so
	// poll briefly for its replay to land.
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().DedupReplays != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon dedup replays = %d, want exactly 1 (one apply for two attempts)", d.Stats().DedupReplays)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := make([]byte, len(payload))
	if _, err := store.Read("/h", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("hedged write lost or corrupted bytes")
	}
	// The span's bytes were counted exactly once despite two wire attempts.
	if s := c.Stats(); s.BytesOut != int64(len(payload)) {
		t.Fatalf("BytesOut = %d, want %d (hedge must not double-count)", s.BytesOut, len(payload))
	}
}

// TestHedgedReadWinsFromDirectPath pins the deterministic hedge win: a
// gray-slow daemon holds the primary read while the direct-PFS hedge
// completes, and the caller gets correct bytes counted exactly once.
func TestHedgedReadWinsFromDirectPath(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	inj := faultnet.NewInjector(faultnet.Plan{})
	_, addr := slowDaemon(t, ion.Config{ID: "ion0", Scheduler: agios.NewFIFO(), DedupWindow: 64}, store, inj)

	payload := bytes.Repeat([]byte{5}, 300)
	if err := store.Create("/r"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("/r", 0, payload); err != nil {
		t.Fatal(err)
	}

	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: 512,
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
	seedLatency(sk, addr, 2*time.Millisecond)

	// The daemon stalls every I/O for 2s; the hedge (direct PFS) answers
	// in microseconds, so it must win long before the primary returns.
	inj.Set(faultnet.Plan{Kind: faultnet.Slow, Delay: 2 * time.Second})
	buf := make([]byte, len(payload))
	start := time.Now()
	n, err := c.Read("/r", 0, buf)
	elapsed := time.Since(start)
	inj.Set(faultnet.Plan{}) // release the drained primary promptly
	if err != nil || n != len(payload) {
		t.Fatalf("hedged read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("read took %v: the hedge never won against the stalled primary", elapsed)
	}
	if got := reg.Counter("fwd_hedge_wins_total{app=\"app\"}").Value(); got != 1 {
		t.Fatalf("fwd_hedge_wins_total = %d, want 1", got)
	}
	if s := c.Stats(); s.BytesIn != int64(len(payload)) {
		t.Fatalf("BytesIn = %d, want %d (winner counts, loser must not)", s.BytesIn, len(payload))
	}
}

// TestHedgeBudgetDenies pins the Finagle-style cap: once the token bucket
// is spent, slow ops wait for their primary instead of hedging.
func TestHedgeBudgetDenies(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	inj := faultnet.NewInjector(faultnet.Plan{})
	_, addr := slowDaemon(t, ion.Config{ID: "ion0", Scheduler: agios.NewFIFO(), DedupWindow: 64}, store, inj)

	payload := bytes.Repeat([]byte{1}, 100)
	if err := store.Create("/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("/b", 0, payload); err != nil {
		t.Fatal(err)
	}

	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: 512,
		Dedup: true,
		RPC:   rpc.Options{CallTimeout: 10 * time.Second},
		// Near-zero earn rate: once the bank is down to one token, the first
		// slow op spends it and the second is denied.
		Hedge:     HedgeConfig{Enabled: true, Pct: 0.5, Budget: 0.01},
		Latency:   sk,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.hedge.bucket.tokens = 1 // spend the bank down to one token
	c.SetIONs([]string{addr})
	seedLatency(sk, addr, 2*time.Millisecond)

	inj.Set(faultnet.Plan{Kind: faultnet.Slow, Delay: 100 * time.Millisecond})
	buf := make([]byte, len(payload))
	for i := 0; i < 2; i++ {
		if _, err := c.Read("/b", 0, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	inj.Set(faultnet.Plan{})
	if got := reg.Counter("fwd_hedge_launched_total{app=\"app\"}").Value(); got != 1 {
		t.Fatalf("fwd_hedge_launched_total = %d, want 1", got)
	}
	if got := reg.Counter("fwd_hedge_denied_total{app=\"app\"}").Value(); got != 1 {
		t.Fatalf("fwd_hedge_denied_total = %d, want 1", got)
	}
}

// TestHedgeEpochFenceInterplay: a fenced daemon rejects both the primary
// and the hedged duplicate as stale; the client must take the normal
// remap-then-direct path exactly once — no double apply, no double count.
func TestHedgeEpochFenceInterplay(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	inj := faultnet.NewInjector(faultnet.Plan{})
	d, addr := slowDaemon(t, ion.Config{
		ID: "ion0", Scheduler: agios.NewFIFO(), DedupWindow: 64, EpochFencing: true,
	}, store, inj)

	sk := latency.NewSketch(0)
	reg := telemetry.New()
	c, err := NewClient(Config{
		AppID: "app", Direct: store, ChunkSize: 256,
		Dedup:        true,
		EpochFencing: true,
		EpochWait:    50 * time.Millisecond,
		RPC:          rpc.Options{CallTimeout: 5 * time.Second},
		Hedge:        HedgeConfig{Enabled: true, Pct: 0.5, Budget: 1},
		Latency:      sk,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ApplyMap(mapping.Map{Version: 5, IONs: map[string][]string{"app": {addr}}})
	if err := c.Create("/f"); err != nil {
		t.Fatal(err)
	}
	seedLatency(sk, addr, 2*time.Millisecond)

	// Fence above the client's epoch, and slow the daemon so the hedge
	// launches before the primary's stale rejection arrives.
	d.SetFence(100)
	inj.Set(faultnet.Plan{Kind: faultnet.Slow, Delay: 40 * time.Millisecond})
	payload := bytes.Repeat([]byte{3}, 200)
	n, err := c.Write("/f", 0, payload)
	inj.Set(faultnet.Plan{})
	if err != nil || n != len(payload) {
		t.Fatalf("fenced hedged write: n=%d err=%v", n, err)
	}

	if got := reg.Counter("fwd_hedge_launched_total{app=\"app\"}").Value(); got < 1 {
		t.Fatalf("fwd_hedge_launched_total = %d, want ≥ 1", got)
	}
	if got := reg.Counter("epoch_stale_retries_total{app=\"app\"}").Value(); got != 1 {
		t.Fatalf("epoch_stale_retries_total = %d, want exactly 1 (hedge must not double-count the fence)", got)
	}
	// The fenced daemon never applied; the direct fallback landed the
	// bytes exactly once.
	got := make([]byte, len(payload))
	if _, err := store.Read("/f", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fenced hedged write lost bytes")
	}
	if s := c.Stats(); s.BytesOut != int64(len(payload)) {
		t.Fatalf("BytesOut = %d, want %d", s.BytesOut, len(payload))
	}
}

// inflightProbe is a fake I/O node that answers every request at once and
// records how many goroutines the process runs while a request is in
// flight — the instant a hand-off per primary would show.
func inflightProbe(t *testing.T, content []byte) (addr string, maxGoroutines *atomic.Int64) {
	t.Helper()
	maxGoroutines = new(atomic.Int64)
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		if n := int64(runtime.NumGoroutine()); n > maxGoroutines.Load() {
			maxGoroutines.Store(n) // one conn, one request at a time: no lost update
		}
		resp := rpc.GetMessage() // the server's Release returns it: the probe adds no allocation of its own
		resp.Op, resp.Path, resp.Trace = req.Op, req.Path, req.Trace
		switch req.Op {
		case rpc.OpWrite:
			resp.Size = int64(len(req.Data))
		case rpc.OpRead:
			resp.Data = content[:req.Size]
		}
		return resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, maxGoroutines
}

// TestArmedIdleHedgeCostsNothing: a hedging client whose deadline never
// passes allocates exactly what a hedge-less client does per Write and per
// Read, and runs the primary on the caller's own goroutine — no goroutine
// more than a hedge-less client has while a request is in flight, over
// 1 000 ops.
func TestArmedIdleHedgeCostsNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 4096)
	type cost struct {
		writeAllocs, readAllocs float64
		extraGoroutines         int64
	}
	measure := func(t *testing.T, hedge HedgeConfig) cost {
		addr, maxGoroutines := inflightProbe(t, payload)
		sk := latency.NewSketch(0)
		reg := telemetry.New()
		c, err := NewClient(Config{
			AppID: "app", Direct: pfs.NewStore(pfs.Config{}), ChunkSize: 8192,
			Dedup: true, Hedge: hedge, Latency: sk, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetIONs([]string{addr})
		buf := make([]byte, len(payload))
		write := func() {
			if n, err := c.Write("/idle", 0, payload); err != nil || n != len(payload) {
				t.Fatalf("write: n=%d err=%v", n, err)
			}
		}
		read := func() {
			if n, err := c.Read("/idle", 0, buf); err != nil || n != len(payload) {
				t.Fatalf("read: n=%d err=%v", n, err)
			}
		}
		// Warm up: the conn is dialed, the sketch has samples (so a hedging
		// client really arms its timer from here on), the pools are primed.
		for i := 0; i < 8; i++ {
			write()
			read()
		}
		var got cost
		baseline := int64(runtime.NumGoroutine())
		maxGoroutines.Store(0)
		for i := 0; i < 500; i++ {
			write()
			read()
		}
		got.extraGoroutines = maxGoroutines.Load() - baseline
		if !testkit.RaceEnabled { // sync.Pool drops a share of Puts under the race detector
			got.writeAllocs = testing.AllocsPerRun(200, write)
			got.readAllocs = testing.AllocsPerRun(200, read)
		}
		for _, name := range []string{"launched", "wins", "denied"} {
			if v := reg.Counter("fwd_hedge_" + name + "_total{app=\"app\"}").Value(); v != 0 {
				t.Fatalf("fwd_hedge_%s_total = %d on an idle hedge, want 0", name, v)
			}
		}
		return got
	}
	var bare, armed cost
	t.Run("hedgeless", func(t *testing.T) { bare = measure(t, HedgeConfig{}) })
	t.Run("armed", func(t *testing.T) { armed = measure(t, HedgeConfig{Enabled: true, MinDelay: time.Minute}) })
	if armed != bare {
		t.Fatalf("an armed-but-idle hedge is not free:\n  hedge-less %+v\n  armed      %+v", bare, armed)
	}
	if bare.extraGoroutines != 0 {
		t.Fatalf("%d goroutines appear while a request is in flight, want 0: the request's own goroutine does the call", bare.extraGoroutines)
	}
}

// scriptedION is a fake I/O node for the outcome table: write and read
// attempts are numbered in arrival order (0 = the primary, 1 = the hedged
// duplicate), announce themselves on arrived, and are answered only when
// the test sends their reply — "" for success, else the application error
// the response carries.
type scriptedION struct {
	arrived chan int
	reply   [2]chan string
	n       atomic.Int32
}

func startScriptedION(t *testing.T, content []byte) (*scriptedION, string) {
	t.Helper()
	s := &scriptedION{arrived: make(chan int, 2)}
	for i := range s.reply {
		s.reply[i] = make(chan string, 1)
	}
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		i := int(s.n.Add(1)) - 1
		resp := &rpc.Message{Op: req.Op, Path: req.Path, Trace: req.Trace}
		if i >= len(s.reply) {
			resp.Err = "scriptedION: unexpected third attempt"
			return resp
		}
		s.arrived <- i
		if resp.Err = <-s.reply[i]; resp.Err != "" {
			return resp
		}
		if req.Op == rpc.OpWrite {
			resp.Size = int64(len(req.Data))
		} else {
			resp.Data = content[:req.Size]
		}
		return resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return s, addr
}

// gatedFS is the direct path of the outcome table: it counts what reaches
// it, and a Read (the hedged read) announces itself and waits for the
// test's verdict, like a scriptedION attempt.
type gatedFS struct {
	pfs.FileSystem
	arrived       chan int
	verdict       chan string
	reads, writes atomic.Int64
}

func (f *gatedFS) Read(path string, off int64, p []byte) (int, error) {
	f.reads.Add(1)
	f.arrived <- 1
	if msg := <-f.verdict; msg != "" {
		return 0, errors.New(msg)
	}
	return f.FileSystem.Read(path, off, p)
}

func (f *gatedFS) Write(path string, off int64, p []byte) (int, error) {
	f.writes.Add(1)
	return f.FileSystem.Write(path, off, p)
}

// TestHedgeOutcomeTable pins the decision table on both ops: first usable
// wins, an unusable first arrival waits for the other (writes), both
// failed surfaces the primary's outcome — with the three hedge counters,
// bytes counted once, the abandoned primary's censored latency sample, the
// throttle gate drained, and no trace of rpc.ErrInterrupted in what
// sendSpan/readSpan saw (no failover, no degrade, no direct-path call
// beyond the hedged read itself).
func TestHedgeOutcomeTable(t *testing.T) {
	// The hedge deadline: long enough that the primary has certainly parked
	// in the fake node before the backup launches, even on a loaded machine
	// (the fake numbers write attempts by arrival).
	const seedDelay = 50 * time.Millisecond
	content := bytes.Repeat([]byte{4}, 512)
	cases := []struct {
		name                 string
		read                 bool
		first                int    // which attempt is answered first: 0 primary, 1 hedge
		primary, hedge       string // replies: "" = usable
		wantErr              string
		wantWins, wantSample int64 // hedge wins; latency samples the span adds
	}{
		{name: "write/primary usable first", first: 0, wantSample: 1},
		{name: "write/hedge usable first", first: 1, wantWins: 1, wantSample: 1},
		{name: "write/primary unusable first, hedge usable", first: 0, primary: "primary boom", wantWins: 1},
		{name: "write/primary unusable first, hedge unusable", first: 0, primary: "primary boom", hedge: "hedge boom", wantErr: "primary boom"},
		{name: "write/hedge unusable first, primary usable", first: 1, hedge: "hedge boom", wantSample: 1},
		{name: "write/hedge unusable first, primary unusable", first: 1, primary: "primary boom", hedge: "hedge boom", wantErr: "primary boom"},
		{name: "read/primary usable first", read: true, first: 0, wantSample: 1},
		{name: "read/hedge usable first", read: true, first: 1, wantWins: 1, wantSample: 1},
		{name: "read/primary unusable first", read: true, first: 0, primary: "primary boom", wantErr: "primary boom"},
		{name: "read/hedge unusable first, primary usable", read: true, first: 1, hedge: "hedge boom", wantSample: 1},
		{name: "read/hedge unusable first, primary unusable", read: true, first: 1, primary: "primary boom", hedge: "hedge boom", wantErr: "primary boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := pfs.NewStore(pfs.Config{})
			if err := store.Create("/t"); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Write("/t", 0, content); err != nil {
				t.Fatal(err)
			}
			s, addr := startScriptedION(t, content)
			direct := &gatedFS{FileSystem: store, arrived: s.arrived, verdict: make(chan string, 1)}
			sk := latency.NewSketch(0)
			reg := telemetry.New()
			c, err := NewClient(Config{
				AppID: "app", Direct: direct, ChunkSize: 1024,
				Dedup:     true,
				RPC:       rpc.Options{CallTimeout: 10 * time.Second},
				Throttle:  ThrottleConfig{Enabled: true},
				Hedge:     HedgeConfig{Enabled: true, Pct: 0.5, MinDelay: seedDelay, Budget: 1},
				Latency:   sk,
				Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			// Runs first, whatever happened: no attempt stays parked, so the
			// client and the fake node can shut down after a failed case too.
			t.Cleanup(func() {
				close(s.reply[0])
				close(s.reply[1])
				close(direct.verdict)
			})
			c.SetIONs([]string{addr})
			seedLatency(sk, addr, seedDelay)
			gate := c.gateFor(addr)
			inflight := func() int {
				gate.mu.Lock()
				defer gate.mu.Unlock()
				return gate.inflight
			}
			waitInflight := func(want int) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); inflight() != want; time.Sleep(200 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("throttle gate holds %d slots, want %d", inflight(), want)
					}
				}
			}

			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			buf := make([]byte, len(content))
			go func() {
				var r result
				if tc.read {
					r.n, r.err = c.Read("/t", 0, buf)
				} else {
					r.n, r.err = c.Write("/t", 0, content)
				}
				done <- r
			}()
			// The primary parks in the fake node, the hedge deadline passes,
			// the backup launches and parks too.
			for want := 0; want < 2; want++ {
				select {
				case got := <-s.arrived:
					if got != want {
						t.Fatalf("attempt %d arrived, want %d", got, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("attempt %d never launched", want)
				}
			}
			answer := func(attempt int) {
				switch {
				case attempt == 0:
					s.reply[0] <- tc.primary
				case tc.read:
					direct.verdict <- tc.hedge
				default:
					s.reply[1] <- tc.hedge
				}
			}
			answer(tc.first)
			firstReply := tc.primary
			if tc.first == 1 {
				firstReply = tc.hedge
			}
			waitDone := func(why string) result {
				t.Helper()
				select {
				case r := <-done:
					return r
				case <-time.After(5 * time.Second):
					t.Fatal(why)
					return result{}
				}
			}
			var r result
			if firstReply == "" || (tc.read && tc.first == 0) {
				// The first answer decides: the op returns with the other
				// attempt still parked.
				r = waitDone("the op did not return on the first answer, which decides it")
				answer(1 - tc.first)
			} else {
				if !tc.read {
					waitInflight(1) // the first answer has been taken in
				}
				answer(1 - tc.first)
				r = waitDone("the op did not return with both attempts answered")
			}
			waitInflight(0) // the loser finished too; an interrupted primary freed its slot

			switch {
			case errors.Is(r.err, rpc.ErrInterrupted):
				t.Fatalf("rpc.ErrInterrupted reached the application: %v", r.err)
			case tc.wantErr == "" && (r.err != nil || r.n != len(content)):
				t.Fatalf("n=%d err=%v, want %d bytes", r.n, r.err, len(content))
			case tc.wantErr != "" && (r.err == nil || r.err.Error() != tc.wantErr):
				t.Fatalf("err = %v, want %q (the primary's outcome)", r.err, tc.wantErr)
			}
			if tc.read && tc.wantErr == "" && !bytes.Equal(buf, content) {
				t.Fatal("read returned wrong bytes")
			}
			counter := func(name string) int64 {
				return reg.Counter("fwd_hedge_" + name + "_total{app=\"app\"}").Value()
			}
			if l, w, d := counter("launched"), counter("wins"), counter("denied"); l != 1 || w != tc.wantWins || d != 0 {
				t.Fatalf("launched/wins/denied = %d/%d/%d, want 1/%d/0", l, w, d, tc.wantWins)
			}
			st := c.Stats()
			wantOut, wantIn, wantDirectReads := int64(len(content)), int64(0), int64(0)
			if tc.read {
				wantOut, wantDirectReads = 0, 1
				if tc.wantErr == "" {
					wantIn = int64(len(content))
				}
			}
			if st.BytesOut != wantOut || st.BytesIn != wantIn {
				t.Fatalf("BytesOut/BytesIn = %d/%d, want %d/%d (counted once, whoever won)", st.BytesOut, st.BytesIn, wantOut, wantIn)
			}
			if st.FailoverOps != 0 || st.DegradedOps != 0 || direct.writes.Load() != 0 || direct.reads.Load() != wantDirectReads {
				t.Fatalf("the fallback chain ran: failover=%d degraded=%d direct writes=%d reads=%d (want 0/0/0/%d)",
					st.FailoverOps, st.DegradedOps, direct.writes.Load(), direct.reads.Load(), wantDirectReads)
			}
			// An answered primary is a latency sample; so is one abandoned to
			// a winning hedge — censored at the moment it was cut off, which
			// is past the hedge deadline by construction.
			if got := int64(sk.Total(addr)) - latency.DefaultWindow; got != tc.wantSample {
				t.Fatalf("the span added %d latency samples, want %d", got, tc.wantSample)
			}
			if slowest, _ := sk.Quantile(addr, 1); tc.wantSample == 1 && slowest <= seedDelay {
				t.Fatalf("slowest sample %v: the slow primary's time is missing from the sketch", slowest)
			}
		})
	}
}

// TestHedgeLosingBackupHopSkipsNextTrace: the tracer recycles a finished
// op's trace record for the next op, and a losing hedge backup still in
// flight when its op finished reports its rpc hop under the finished op's
// ID. That hop must land nowhere — above all not in the next op's trace,
// which is open on the recycled record when the backup's answer arrives.
func TestHedgeLosingBackupHopSkipsNextTrace(t *testing.T) {
	const seedDelay = 50 * time.Millisecond
	// Attempts in arrival order: 0 the write's primary, 1 its hedged
	// duplicate, 2 the next op (a stat); each waits for its release.
	arrived := make(chan int, 3)
	var release [3]chan struct{}
	for i := range release {
		release[i] = make(chan struct{})
	}
	var attempts atomic.Int32
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		resp := &rpc.Message{Op: req.Op, Path: req.Path, Trace: req.Trace, Size: int64(len(req.Data))}
		i := int(attempts.Add(1)) - 1
		if i >= len(release) {
			resp.Err = "unexpected attempt"
			return resp
		}
		arrived <- i
		<-release[i]
		return resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { // runs first: nothing stays parked after a failure
		for _, ch := range release {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	sk := latency.NewSketch(0)
	tracer := telemetry.NewTracer(0)
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}), ChunkSize: 1024,
		Dedup:     true,
		RPC:       rpc.Options{CallTimeout: 10 * time.Second},
		Throttle:  ThrottleConfig{Enabled: true},
		Hedge:     HedgeConfig{Enabled: true, Pct: 0.5, MinDelay: seedDelay, Budget: 1},
		Latency:   sk,
		Telemetry: telemetry.New(),
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetIONs([]string{addr})
	seedLatency(sk, addr, seedDelay)
	gate := c.gateFor(addr)
	waitInflight := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			gate.mu.Lock()
			n := gate.inflight
			gate.mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("throttle gate holds %d slots, want %d", n, want)
			}
		}
	}
	waitArrival := func(want int) {
		t.Helper()
		select {
		case got := <-arrived:
			if got != want {
				t.Fatalf("attempt %d arrived, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attempt %d never arrived", want)
		}
	}

	written := make(chan error, 1)
	go func() {
		_, err := c.Write("/t", 0, bytes.Repeat([]byte{7}, 256))
		written <- err
	}()
	waitArrival(0)
	waitArrival(1) // the hedge deadline passed: the backup is parked too
	close(release[0])
	if err := <-written; err != nil {
		t.Fatalf("write: %v", err)
	}
	// The write finished with its backup still out; the next op's trace
	// opens on the recycled record and stays open at the node.
	statted := make(chan error, 1)
	go func() {
		_, err := c.Stat("/t")
		statted <- err
	}()
	waitArrival(2)
	close(release[1])
	waitInflight(1) // the backup's answer is in and its rpc hop reported
	close(release[2])
	if err := <-statted; err != nil {
		t.Fatalf("stat: %v", err)
	}

	recent := tracer.Recent()
	if len(recent) != 2 {
		t.Fatalf("%d traces retained, want the write's and the stat's", len(recent))
	}
	for i, want := range []string{"write", "stat"} {
		tr := recent[i]
		var layers []string
		for _, h := range tr.Hops {
			layers = append(layers, h.Layer)
		}
		if tr.Op != want || len(layers) != 2 || layers[0] != "fwd" || layers[1] != "rpc" {
			t.Fatalf("%s trace %d: op %q, hops %v; want fwd then one rpc hop", want, tr.ID, tr.Op, layers)
		}
	}
}
