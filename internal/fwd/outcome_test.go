package fwd

// The fallback rule as a table: six ops × every way a request can end. The
// oracle below is written from the rule (DESIGN.md §8 "Fallback rule"),
// not from the code: when the I/O node cannot take a request the PFS does,
// the bytes are counted once, and the trace says which of the two it was.
// How many wire requests a route costs is written from the retry bound
// DESIGN.md §8 states (spanBound): a route that drives one retry layer to
// its cap costs exactly that layer's factor, and no cell costs more than
// the bound.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// spanBound is DESIGN.md §8's worst case for the wire requests one span or
// metadata op can cost: each retry layer at its cap, multiplying the ones
// below it — (1+maxEpochRemaps) × 2 (hedge) × (1+busyRetries+MaxRetries)
// × 2 (stale re-dial). The busy and the transport re-sends are both
// callION's, one attempt each, so their caps add.
func spanBound(maxRetries int) int64 {
	return int64((1 + maxEpochRemaps) * 2 * (1 + busyRetries + maxRetries) * 2)
}

// transportRetries is the "transport retries exhausted" and "half-open
// probe fails" routes' MaxRetries, midCallRetries the "gate opens mid-call"
// route's.
const transportRetries, midCallRetries = 2, 3

// outcomeION is the table's fake I/O node: every request is counted and
// answered the way mode says. A "stale" answer runs onStale first, so the
// fresher mapping (if the route has one) is installed before the client
// sees the rejection. plan is the network fault on every connection.
type outcomeION struct {
	mode    atomic.Value // "ok", "app", "busy", "stale"
	wire    atomic.Int64
	onStale func()
	content []byte
	plan    faultnet.Plan
	srv     *rpc.Server
}

func (f *outcomeION) handle(req *rpc.Message) *rpc.Message {
	f.wire.Add(1)
	resp := &rpc.Message{Op: req.Op, Path: req.Path, Trace: req.Trace}
	switch f.mode.Load().(string) {
	case "app":
		resp.Err = fmt.Sprintf("%v: %s", pfs.ErrNotExist, req.Path)
	case "busy":
		resp.Busy, resp.RetryAfter = true, 100*time.Microsecond
	case "stale":
		if f.onStale != nil {
			f.onStale()
		}
		resp.Err, resp.Epoch = rpc.StaleEpochErrText(req.Epoch, 1<<40), 1<<40
	default:
		switch req.Op {
		case rpc.OpWrite:
			resp.Size = int64(len(req.Data))
		case rpc.OpRead:
			resp.Data = f.content[req.Offset : req.Offset+req.Size]
		case rpc.OpStat:
			resp.Size = int64(len(f.content))
		}
	}
	return resp
}

// listen serves on addr ("127.0.0.1:0" picks a port) and returns the bound
// address.
func (f *outcomeION) listen(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(f.handle)
	if addr, err = srv.ListenOn(faultnet.WrapListener(ln, faultnet.NewInjector(f.plan))); err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	t.Cleanup(func() { srv.Close() })
	return addr
}

func (f *outcomeION) start(t *testing.T) string { return f.listen(t, "127.0.0.1:0") }

// restart replaces the server with a fresh one on the same address: every
// conn a client pooled to the old one is dead.
func (f *outcomeION) restart(t *testing.T, addr string) {
	f.srv.Close()
	f.listen(t, addr)
}

// deadAddr returns an address nothing listens on any more.
func deadAddr(t *testing.T) string {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message { return req })
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	return addr
}

// countingFS is the table's direct path: a real store that counts how
// often each method ran.
type countingFS struct {
	pfs.FileSystem
	calls [6]atomic.Int64 // indexed like outcomeOps
}

func (f *countingFS) Create(path string) error {
	f.calls[0].Add(1)
	return f.FileSystem.Create(path)
}

func (f *countingFS) Write(path string, off int64, p []byte) (int, error) {
	f.calls[1].Add(1)
	return f.FileSystem.Write(path, off, p)
}

func (f *countingFS) Read(path string, off int64, p []byte) (int, error) {
	f.calls[2].Add(1)
	return f.FileSystem.Read(path, off, p)
}

func (f *countingFS) Stat(path string) (pfs.FileInfo, error) {
	f.calls[3].Add(1)
	return f.FileSystem.Stat(path)
}

func (f *countingFS) Remove(path string) error {
	f.calls[4].Add(1)
	return f.FileSystem.Remove(path)
}

func (f *countingFS) Fsync(path string) error {
	f.calls[5].Add(1)
	return f.FileSystem.Fsync(path)
}

var outcomeOps = [6]string{"create", "write", "read", "stat", "remove", "fsync"}

const (
	opCreate = iota
	opWrite
	opRead
	opStat
	opRemove
	opFsync
)

// outcomeWant is one cell of the oracle.
type outcomeWant struct {
	n            int   // bytes the data op reports
	is           error // errors.Is class of the result; nil = success
	stats        Stats // all nine counters
	epochRetries int64 // epoch_stale_retries_total
	direct       int64 // how often the op's own Direct method ran (every other: 0)
	wire         int64 // requests that reached the I/O node
	retries      int64 // rpc_retries_total: transport re-sends
	stale        int64 // rpc_stale_retries_total: re-sends of a request that died on a dead pooled conn
	rejects      int64 // rpc_breaker_rejected_total: calls an open gate refused before the wire
	closes       int64 // rpc_breaker_close_total: open gates a probe closed
	note         string
	noTrace      bool // the op was refused before a trace was opened
}

// outcomeOracle derives a cell from the rule alone. L is the payload size
// (one span), so "the bytes" are L for a data op that succeeded anywhere.
func outcomeOracle(op int, route string, L int) outcomeWant {
	data := op == opWrite || op == opRead
	w := outcomeWant{stats: Stats{RemapsApplied: 1}}
	note := func(meta string) {
		w.note = meta
		if data {
			w.note = "chunks=1" // a data op names its fan-out, not an outcome
		}
	}
	moved := func() { // the op succeeded: its bytes moved, once
		if op == opWrite {
			w.n, w.stats.BytesOut = L, int64(L)
		}
		if op == opRead {
			w.n, w.stats.BytesIn = L, int64(L)
		}
	}
	// A request offered to the I/O node: one forwarded op, and a write's
	// bytes are counted before the first attempt whatever happens next.
	offered := func() {
		w.stats.ForwardedOps = 1
		if op == opWrite {
			w.stats.BytesOut = int64(L)
		}
	}
	served := func() { offered(); w.wire = 1; moved(); note("forwarded") }
	refused := func(is error) { offered(); w.wire = 1; w.is = is; note("forwarded") }
	toDirect := func(metaNote string) { offered(); w.direct = 1; moved(); note(metaNote) }

	switch route {
	case "no allocation":
		w.stats = Stats{DirectOps: 1}
		w.direct = 1
		moved()
		note("direct")
	case "forwarded ok":
		served()
	case "application error":
		refused(pfs.ErrNotExist)
	case "shed past busyRetries":
		toDirect("degraded")
		w.wire, w.stats.ShedResponses, w.stats.DegradedOps = 1+busyRetries, 1+busyRetries, 1
	case "saturated gate":
		toDirect("degraded")
		w.stats.DegradedOps = 1
	case "unreachable", "released conn":
		toDirect("failover")
		w.stats.FailoverOps = 1
	case "open gate":
		// BreakerThreshold unreachable calls opened the node's gate: the
		// request is refused before the wire and the PFS takes it.
		toDirect("failover")
		w.stats.FailoverOps = 1
		w.rejects = 1
	case "half-open probe closes":
		// Past the cool-down the request is the gate's one probe.
		served()
		w.closes = 1
	case "half-open probe fails":
		// The probe is one attempt: its failure re-opens the gate, which
		// refuses the re-send MaxRetries would allow, and the PFS takes it.
		toDirect("failover")
		w.stats.FailoverOps = 1
		w.wire, w.rejects = 1, 1
	case "gate opens mid-call":
		// Each attempt is one transport failure: the second opens the gate
		// (BreakerThreshold 2), which refuses the third of 1+MaxRetries.
		toDirect("failover")
		w.stats.FailoverOps = 1
		w.wire, w.retries, w.rejects = 2, 1, 1
	case "transport retries exhausted":
		// The node ran every attempt's request; no reply came back in time.
		toDirect("failover")
		w.stats.FailoverOps = 1
		w.wire, w.retries = 1+transportRetries, transportRetries
	case "stale pooled conn":
		// The pooled conn died with the old server: the request is sent
		// again on a fresh dial and reaches the node once.
		served()
		w.stale = 1
	case "fenced, fresher view held":
		// The node installs the fresher map before it answers, as a
		// stack's Publish does. Only writes are remapped; any other op
		// gets the rejection back.
		if op != opWrite {
			refused(rpc.ErrStaleEpoch)
		} else {
			served()
			w.wire, w.epochRetries = 2, 1
		}
		w.stats.RemapsApplied = 2
	case "fenced, no fresher view held":
		// Nothing waits for a map: the PFS takes the write at once.
		if op != opWrite {
			refused(rpc.ErrStaleEpoch)
		} else {
			toDirect("")
			w.wire, w.epochRetries = 1, 1
		}
	case "fenced, fresher view is direct":
		// The fresh map gives the app no I/O node: the write goes to the
		// PFS.
		if op != opWrite {
			refused(rpc.ErrStaleEpoch)
		} else {
			toDirect("")
			w.wire, w.epochRetries = 1, 1
		}
		w.stats.RemapsApplied = 2
	case "fenced maxEpochRemaps deep":
		if op != opWrite {
			refused(rpc.ErrStaleEpoch)
			w.stats.RemapsApplied = 2
		} else {
			toDirect("")
			w.wire, w.epochRetries = maxEpochRemaps+1, maxEpochRemaps+1
			w.stats.RemapsApplied = maxEpochRemaps + 2
		}
	case "QoS scavenger, empty bucket":
		if !data { // metadata is not admission-controlled
			served()
		} else {
			w.stats.DegradedOps, w.stats.DirectOps, w.direct = 1, 1, 1
			moved()
			w.note = "degraded"
		}
	case "closed client":
		w.is, w.noTrace = rpc.ErrClosed, true
	default:
		panic(route)
	}
	return w
}

func TestOpOutcomeTableFailoverDegradedShedStale(t *testing.T) {
	// The bound as DESIGN.md §8 states it: at the defaults, and under the
	// torture scenario's MaxRetries 3 (192 while rpc re-sent under the
	// busy loop; the pin was lowered when callION became the one loop).
	if spanBound(0) != 48 || spanBound(3) != 96 {
		t.Fatalf("one span may cost %d wire requests at the defaults and %d at MaxRetries 3; DESIGN.md §8 states 48 and 96",
			spanBound(0), spanBound(3))
	}
	content := bytes.Repeat([]byte{6}, 512)
	routes := []string{
		"no allocation", "forwarded ok", "application error",
		"shed past busyRetries", "saturated gate", "unreachable", "released conn",
		"fenced, fresher view held", "fenced, no fresher view held", "fenced maxEpochRemaps deep",
		"fenced, fresher view is direct",
		"QoS scavenger, empty bucket", "closed client",
		"transport retries exhausted", "stale pooled conn",
		"open gate", "half-open probe closes", "half-open probe fails", "gate opens mid-call",
	}
	for _, route := range routes {
		for op, opName := range outcomeOps {
			t.Run(route+"/"+opName, func(t *testing.T) {
				store := pfs.NewStore(pfs.Config{})
				if _, err := store.Write("/t", 0, content); err != nil {
					t.Fatal(err)
				}
				direct := &countingFS{FileSystem: store}
				fake := &outcomeION{content: content}
				fake.mode.Store("ok")
				switch route {
				case "transport retries exhausted", "half-open probe fails", "gate opens mid-call":
					// Requests arrive at once, replies never: every attempt
					// runs the handler and then times out.
					fake.plan = faultnet.Plan{Kind: faultnet.Slow, Dir: faultnet.Outbound, Delay: time.Hour}
				}
				addr := fake.start(t)
				if route == "unreachable" {
					addr = deadAddr(t)
				}
				reg := telemetry.New()
				tracer := telemetry.NewTracer(8)
				cfg := Config{
					AppID: "app", Direct: direct, ChunkSize: 1024,
					Telemetry: reg, Tracer: tracer,
				}
				var version atomic.Uint64
				version.Store(1)
				var c *Client
				remap := func() {
					c.ApplyMap(mapping.Map{Version: version.Add(1), IONs: map[string][]string{"app": {addr}}})
				}
				switch route {
				case "application error":
					fake.mode.Store("app")
				case "shed past busyRetries":
					fake.mode.Store("busy")
				case "saturated gate":
					cfg.Throttle = ThrottleConfig{Enabled: true}
				case "fenced, fresher view held":
					fake.mode.Store("stale")
					fake.onStale = func() { fake.mode.Store("ok"); remap() }
				case "fenced, no fresher view held":
					fake.mode.Store("stale")
				case "fenced maxEpochRemaps deep":
					fake.mode.Store("stale")
					fake.onStale = remap
				case "fenced, fresher view is direct":
					fake.mode.Store("stale")
					fake.onStale = func() { c.ApplyMap(mapping.Map{Version: version.Add(1)}) }
				case "QoS scavenger, empty bucket":
					cfg.QoS = &qos.Class{Name: "scav", Tier: qos.TierScavenger, Rate: 1, Burst: 1}
				case "transport retries exhausted":
					cfg.RPC = rpc.Options{CallTimeout: 50 * time.Millisecond, MaxRetries: transportRetries}
				case "open gate", "half-open probe closes":
					cfg.RPC = rpc.Options{BreakerThreshold: 2, BreakerCooldown: time.Minute}
				case "half-open probe fails":
					cfg.RPC = rpc.Options{CallTimeout: 50 * time.Millisecond, MaxRetries: transportRetries,
						BreakerThreshold: 2, BreakerCooldown: time.Minute}
				case "gate opens mid-call":
					cfg.RPC = rpc.Options{CallTimeout: 50 * time.Millisecond, MaxRetries: midCallRetries,
						BreakerThreshold: 2, BreakerCooldown: time.Minute}
				}
				var err error
				if c, err = NewClient(cfg); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				if route != "no allocation" {
					c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"app": {addr}}})
				}
				switch route {
				case "saturated gate":
					g := &c.view.Load().targets[0].gate
					g.mu.Lock()
					g.sheds, g.until = degradeAfter, time.Now().Add(time.Hour)
					g.mu.Unlock()
				case "open gate", "half-open probe closes", "half-open probe fails":
					// Unreachable calls, as the gate sees them, until it
					// opens; the cool-down passes on its clock.
					g := &c.view.Load().targets[0].gate
					now := time.Now()
					g.mu.Lock()
					g.now = func() time.Time { return now }
					g.mu.Unlock()
					for g.pol.opens.Value() == 0 {
						if _, err := g.acquire(0); err != nil {
							t.Fatal(err)
						}
						g.release(verdictUnreachable, false, 0)
					}
					if route != "open gate" {
						now = now.Add(cfg.RPC.BreakerCooldown)
					}
				case "released conn":
					c.targetFor(addr).conn.Close()
				case "closed client":
					c.Close()
				case "stale pooled conn":
					if _, err := c.targetFor(addr).conn.Call(&rpc.Message{Op: rpc.OpPing}); err != nil {
						t.Fatal(err)
					}
					fake.restart(t, addr)
					fake.wire.Store(0)
				}
				var n int
				var got error
				buf := make([]byte, len(content))
				switch op {
				case opCreate:
					got = c.Create("/t")
				case opWrite:
					n, got = c.Write("/t", 0, content)
				case opRead:
					n, got = c.Read("/t", 0, buf)
				case opStat:
					var fi pfs.FileInfo
					if fi, got = c.Stat("/t"); got == nil && (fi.Path != "/t" || fi.Size != int64(len(content))) {
						t.Errorf("Stat = %+v, want /t with %d bytes", fi, len(content))
					}
				case opRemove:
					got = c.Remove("/t")
				case opFsync:
					got = c.Fsync("/t")
				}

				want := outcomeOracle(op, route, len(content))
				if want.is == nil && got != nil {
					t.Errorf("err = %v, want success", got)
				}
				if want.is != nil && !errors.Is(got, want.is) {
					t.Errorf("err = %v, want errors.Is(%v)", got, want.is)
				}
				if n != want.n {
					t.Errorf("n = %d, want %d", n, want.n)
				}
				if op == opRead && want.is == nil && !bytes.Equal(buf, content) {
					t.Error("read returned wrong bytes")
				}
				if st := c.Stats(); st != want.stats {
					t.Errorf("stats\n got  %+v\n want %+v", st, want.stats)
				}
				if v := reg.Snapshot().Counters[`epoch_stale_retries_total{app="app"}`]; v != want.epochRetries {
					t.Errorf("epoch_stale_retries_total = %d, want %d", v, want.epochRetries)
				}
				for i := range direct.calls {
					wantCalls := int64(0)
					if i == op {
						wantCalls = want.direct
					}
					if v := direct.calls[i].Load(); v != wantCalls {
						t.Errorf("Direct.%s ran %d times, want %d", outcomeOps[i], v, wantCalls)
					}
				}
				// A request can reach the handler after its attempt timed out.
				for deadline := time.Now().Add(2 * time.Second); fake.wire.Load() < want.wire && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if v := fake.wire.Load(); v != want.wire {
					t.Errorf("%d requests reached the I/O node, want %d", v, want.wire)
				}
				counters := reg.Snapshot().Counters
				retries, stale := counters["rpc_retries_total"], counters["rpc_stale_retries_total"]
				if retries != want.retries || stale != want.stale {
					t.Errorf("rpc_retries_total = %d, rpc_stale_retries_total = %d; want %d, %d", retries, stale, want.retries, want.stale)
				}
				if rejects, closes := counters["rpc_breaker_rejected_total"], counters["rpc_breaker_close_total"]; rejects != want.rejects || closes != want.closes {
					t.Errorf("rpc_breaker_rejected_total = %d, rpc_breaker_close_total = %d; want %d, %d", rejects, closes, want.rejects, want.closes)
				}
				if sent := fake.wire.Load() + stale; sent > spanBound(cfg.RPC.MaxRetries) {
					t.Errorf("%d wire requests, above the bound %d", sent, spanBound(cfg.RPC.MaxRetries))
				}
				traces := tracer.Recent()
				if want.noTrace {
					if len(traces) != 0 {
						t.Errorf("a refused op left %d traces", len(traces))
					}
					return
				}
				if len(traces) != 1 {
					t.Fatalf("%d traces, want 1", len(traces))
				}
				hopNote, hops := "", 0
				for _, h := range traces[0].Hops {
					if h.Layer == "fwd" {
						hopNote, hops = h.Note, hops+1
					}
				}
				if hops != 1 || hopNote != want.note {
					t.Errorf("%d fwd hops, note %q; want 1, %q", hops, hopNote, want.note)
				}
			})
		}
	}
}
