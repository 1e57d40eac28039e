// Package ion implements the I/O-node daemon: the GekkoFWD server role.
// A daemon accepts forwarded requests over the rpc transport and feeds data
// operations through an AGIOS scheduler queue, which decides when each one
// runs; the connection goroutine that submitted a request then executes it
// against the parallel file system itself, holding one of a fixed number
// of dispatch slots. Metadata operations bypass the scheduler (as in
// GekkoFS, where they go straight to the daemon's metadata backend).
//
// A daemon is brought up by Start (bind an address), StartOn (serve a
// listener the caller bound, and possibly wrapped) or, after a Close,
// Restart (rebind the address it last served).
package ion

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agios"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Backend is the storage interface a daemon dispatches to: the PFS
// contract plus writer attribution, so the shared-file contention model
// can tell I/O-node streams apart. *pfs.Store implements it; test doubles
// (e.g. fault injectors) may wrap one; see lendFrom for reads and stager
// for writes.
type Backend interface {
	pfs.FileSystem
	WriteAs(writer, path string, off int64, p []byte) (int, error)
}

// lent is a read's bytes as its reply carries them: segments, and the
// lease that owns them until the transport releases it after the write.
type lent struct {
	segs  [][]byte
	lease rpc.Lease
}

// lendFrom returns the daemon's one read path over b. *pfs.Store lends its
// blocks; a backend without ReadLease (a tracing or fault-injecting
// wrapper) is read into a pooled rpc buffer, which its lease returns.
func lendFrom(b Backend) func(path string, off int64, n int) (lent, error) {
	if s, ok := b.(interface {
		ReadLease(path string, off int64, n int) (*pfs.Lease, error)
	}); ok {
		return func(path string, off int64, n int) (lent, error) {
			l, err := s.ReadLease(path, off, n)
			if l == nil {
				return lent{}, err
			}
			return lent{l.Segs, l}, err
		}
	}
	return func(path string, off int64, n int) (lent, error) {
		c := copies.Get().(*copyLease)
		buf := rpc.GetBuffer(n)
		k, err := b.Read(path, off, buf)
		c.seg[0] = buf[:k]
		return lent{c.seg[:], c}, err
	}
}

// stager is the daemon's one write path, chosen in New as lendFrom is:
// *pfs.Store has the decoder land a write's payload in the blocks Stage
// hands out, and the dispatch installs them; a backend without it gets the
// copy adapter — a pooled rpc buffer, then WriteAs. A fenced, replayed or
// shed write's stage goes back uninstalled with the request.
type stager interface {
	Stage(path string, off int64, n int) (*pfs.Stage, error)
	Install(writer string, st *pfs.Stage) (int, error)
}

// stage is the daemon's rpc.Sink. It declines, leaving the payload to a
// pooled buffer and WriteAs, under the copy adapter and for a range out of
// bounds.
func (d *Daemon) stage(m *rpc.Message, n int) ([][]byte, rpc.Lease) {
	if d.stager != nil && m.Op == rpc.OpWrite {
		if st, err := d.stager.Stage(m.Path, m.Offset, n); err == nil {
			return st.Segs, st
		}
	}
	return nil, nil
}

// copyLease is a read copied into a pooled rpc buffer.
type copyLease struct{ seg [1][]byte }

var copies = sync.Pool{New: func() any { return new(copyLease) }}

func (c *copyLease) Release() {
	rpc.PutBuffer(c.seg[0])
	c.seg[0] = nil
	copies.Put(c)
}

// Stats counts the daemon's activity.
type Stats struct {
	Writes       int64
	Reads        int64
	MetaOps      int64
	BytesIn      int64
	BytesOut     int64
	Dispatches   int64 // PFS dispatches (aggregates count once)
	Handoffs     int64 // dispatches whose submitter had to park for a slot
	Aggregated   int64 // client requests that were merged into aggregates
	QueueRejects int64
	DedupReplays int64 // write retries answered from the dedup window
	Restarts     int64 // warm restarts since New
}

// Config parameterizes a daemon.
type Config struct {
	// ID names the daemon; it is used as the writer identity at the PFS
	// so the shared-file lock model sees per-I/O-node streams, and as the
	// `node` label on the daemon's metric series.
	ID string
	// Scheduler orders requests; nil selects FIFO.
	Scheduler agios.Scheduler
	// Dispatchers is the number of dispatch slots: at most that many
	// backend calls run concurrently, each on the goroutine of the
	// connection that submitted the request. ≤0 selects 2 (matching the
	// performance model's DispatchWidth).
	Dispatchers int
	// QueueCap bounds the AGIOS queue: at QueueCap pending requests the
	// daemon sheds new data requests with a busy response (retry-after
	// hint attached) instead of enqueueing, until dispatch drains the
	// queue to QueueCap/2. ≤0 keeps the historical unbounded queue.
	QueueCap int
	// RetryAfterHint is attached to queue-full busy responses so clients
	// can pace their retries; ≤0 selects 2ms.
	RetryAfterHint time.Duration
	// MaxInflight caps requests concurrently inside the RPC handler
	// (shed with a busy response above it); ≤0 means unlimited.
	MaxInflight int
	// WireChecksum makes the daemon's RPC server append a CRC32C trailer
	// to every response. Inbound frames are verified whenever they carry a
	// trailer regardless of this setting. Off by default.
	WireChecksum bool
	// DedupWindow bounds the per-client exactly-once window: the daemon
	// remembers the outcomes of the last DedupWindow stamped writes per
	// forwarding client and replays them on transport retries instead of
	// re-executing. ≤0 disables deduplication (stamped writes re-execute,
	// the pre-integrity behavior).
	DedupWindow int
	// Telemetry receives the daemon's metrics (per-node labeled series:
	// ion_writes_total{node="…"}, …). Nil selects a private registry so
	// Stats() always works; pass the stack-wide registry to aggregate
	// across daemons (as livestack does).
	Telemetry *telemetry.Registry
	// Tracer receives per-request hops ("ion" at the RPC boundary,
	// "agios" for queue wait, "pfs" for backend dispatch). Nil disables
	// hop recording.
	Tracer *telemetry.Tracer
}

// Daemon is one I/O node.
type Daemon struct {
	cfg       Config
	backend   Backend
	readLease func(path string, off int64, n int) (lent, error) // see lendFrom
	stager    stager                                            // nil: the copy adapter
	label     string
	schedName string // cfg.Scheduler.Name(), for trace notes

	// mu guards the per-generation state a warm restart replaces (queue,
	// server, addr). Request handlers read queue without the lock: they
	// only run while their generation's server is alive, and Close drains
	// them before Restart swaps anything.
	mu     sync.Mutex
	queue  *agios.Queue
	server *rpc.Server
	addr   string

	// dedup survives warm restarts by design: the retries it must absorb
	// are exactly the ones a restart strands. Nil when DedupWindow ≤ 0.
	dedup *dedupTable

	// fence is the lowest still-valid mapping epoch (0 = nothing fenced).
	// Raised by SetFence on recovery publishes; read lock-free on the
	// write path. Survives warm restarts like the dedup window: the
	// stale clients it must fence are exactly the ones a control-plane
	// blackout strands.
	fence atomic.Uint64

	closed atomic.Bool

	// All counters live on reg; logically-coupled counters are updated in
	// one reg.Update group and read back under one reg.View, so a
	// concurrent Stats() can never observe a torn set (e.g. a write
	// counted but its bytes not yet).
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	tel    struct {
		writes, reads, meta, bytesIn, bytesOut *telemetry.Counter
		dispatches, aggregated, rejects        *telemetry.Counter
		handoffs                               *telemetry.Counter
		dedupReplays, restarts                 *telemetry.Counter
		fenceRejects                           *telemetry.Counter
		dispatchLatency                        *telemetry.Histogram
		requestBytes                           *telemetry.Histogram
	}
}

// New creates a daemon over the given PFS backend.
func New(cfg Config, backend Backend) *Daemon {
	if cfg.Scheduler == nil {
		cfg.Scheduler = agios.NewFIFO()
	}
	if cfg.Dispatchers <= 0 {
		cfg.Dispatchers = 2
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = 2 * time.Millisecond
	}
	d := &Daemon{
		cfg:       cfg,
		backend:   backend,
		readLease: lendFrom(backend),
		tracer:    cfg.Tracer,
		schedName: cfg.Scheduler.Name(),
	}
	d.reg = cfg.Telemetry
	if d.reg == nil {
		d.reg = telemetry.New()
	}
	label := fmt.Sprintf("{node=%q}", cfg.ID)
	d.label = label
	d.tel.writes = d.reg.Counter("ion_writes_total" + label)
	d.tel.reads = d.reg.Counter("ion_reads_total" + label)
	d.tel.meta = d.reg.Counter("ion_meta_ops_total" + label)
	d.tel.bytesIn = d.reg.Counter("ion_bytes_in_total" + label)
	d.tel.bytesOut = d.reg.Counter("ion_bytes_out_total" + label)
	d.tel.dispatches = d.reg.Counter("ion_dispatches_total" + label)
	d.tel.handoffs = d.reg.Counter("ion_dispatch_handoffs_total" + label)
	d.tel.aggregated = d.reg.Counter("ion_aggregated_total" + label)
	d.tel.rejects = d.reg.Counter("ion_queue_rejects_total" + label)
	d.tel.dedupReplays = d.reg.Counter("ion_dedup_replays_total" + label)
	d.tel.restarts = d.reg.Counter("ion_restarts_total" + label)
	d.tel.fenceRejects = d.reg.Counter("epoch_fence_rejections_total" + label)
	d.tel.dispatchLatency = d.reg.Histogram("ion_dispatch_latency_seconds"+label, telemetry.LatencyBuckets())
	d.tel.requestBytes = d.reg.Histogram("ion_request_bytes"+label, telemetry.SizeBuckets())
	if cfg.DedupWindow > 0 {
		d.dedup = newDedupTable(cfg.DedupWindow)
	}
	d.stager, _ = backend.(stager)
	d.build()
	return d
}

// build constructs one generation of the daemon's serving state: a fresh
// scheduler queue and RPC server. New calls it once; Restart calls it
// again after Close drained the previous generation. The scheduler
// instance, telemetry registry (counters are get-or-create, so series
// stay monotonic across restarts), dedup table, and backend all carry
// over.
func (d *Daemon) build() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queue = agios.NewQueue(d.cfg.Scheduler)
	d.queue.SetSlots(d.cfg.Dispatchers)
	if d.cfg.QueueCap > 0 {
		d.queue.SetCapacity(d.cfg.QueueCap)
	}
	d.queue.Instrument(d.reg, d.label)
	d.server = rpc.NewServer(d.handle).
		WithSink(d.stage).
		WithLimits(rpc.ServerLimits{
			MaxInflight: d.cfg.MaxInflight,
			RetryAfter:  d.cfg.RetryAfterHint,
		}).
		WithChecksum(d.cfg.WireChecksum).
		Instrument(d.reg, d.label)
}

// Start binds the daemon to addr (empty for an ephemeral localhost port)
// and returns the bound address.
func (d *Daemon) Start(addr string) (string, error) {
	d.mu.Lock()
	server := d.server
	d.mu.Unlock()
	bound, err := server.Listen(addr)
	if err != nil {
		return "", err
	}
	d.setAddr(bound)
	return bound, nil
}

// StartOn serves on an already-bound listener instead of dialing one up.
// This is the seam fault-injection wrappers (faultnet) and tests use to
// interpose on the daemon's network path.
func (d *Daemon) StartOn(ln net.Listener) (string, error) {
	d.mu.Lock()
	server := d.server
	d.mu.Unlock()
	bound, err := server.ListenOn(ln)
	if err != nil {
		return "", err
	}
	d.setAddr(bound)
	return bound, nil
}

func (d *Daemon) setAddr(bound string) {
	d.mu.Lock()
	d.addr = bound
	d.mu.Unlock()
}

// Restart warm-starts a previously Closed daemon on the address it last
// served: same identity, same backend, same dedup window (so retries
// stranded by the crash still deduplicate), fresh scheduler queue and RPC
// server. A non-nil wrap is given the rebound listener and the daemon
// serves on what it returns — the seam livestack uses to put its
// fault-injection wrapper back on the restarted daemon's network path.
// It returns the bound address. Restarting a running daemon is an error;
// Close it first.
func (d *Daemon) Restart(wrap func(net.Listener) net.Listener) (string, error) {
	d.mu.Lock()
	addr := d.addr
	d.mu.Unlock()
	if addr == "" {
		return "", errors.New("ion: restart before first Start")
	}
	if !d.closed.Load() {
		return "", errors.New("ion: restart of a running daemon")
	}
	// The previous listener's port can linger briefly after Close on some
	// platforms; retry the bind rather than failing the whole rejoin.
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return "", fmt.Errorf("ion: restart rebind %s: %w", addr, err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	d.build()
	d.closed.Store(false)
	bound, err := d.StartOn(ln)
	if err != nil {
		d.closed.Store(true)
		return "", err
	}
	d.tel.restarts.Inc()
	return bound, nil
}

// Addr returns the daemon's bound address (empty before Start).
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr
}

// ID returns the daemon's identity.
func (d *Daemon) ID() string { return d.cfg.ID }

// SchedulerName reports which AGIOS scheduler the daemon runs.
func (d *Daemon) SchedulerName() string { return d.schedName }

// QueueDepth reports the pending requests in the scheduler queue.
func (d *Daemon) QueueDepth() int { return d.q().Len() }

// QueueSaturated reports whether the bounded queue is currently shedding.
func (d *Daemon) QueueSaturated() bool { return d.q().Saturated() }

// q returns the current generation's queue for external observers, who
// may race a restart (request handlers use d.queue directly: they cannot
// outlive their generation's server).
func (d *Daemon) q() *agios.Queue {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queue
}

// Close stops the RPC server and waits for its connection goroutines.
// That drains the scheduler queue too: every pending request has a live
// submitter among them, and each is handed a slot as earlier dispatches
// finish. A Closed daemon can come back with Restart.
func (d *Daemon) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	d.mu.Lock()
	server, queue := d.server, d.queue
	d.mu.Unlock()
	err := server.Close()
	queue.Close()
	return err
}

// Stats returns a consistent snapshot of the daemon's counters: the read
// happens under the registry's view gate, so no concurrently running
// update group is half-visible (previously each field was loaded from an
// independent atomic, and a reader could see a request counted with its
// bytes still missing).
func (d *Daemon) Stats() Stats {
	var s Stats
	d.reg.View(func() {
		s = Stats{
			Writes:       d.tel.writes.Value(),
			Reads:        d.tel.reads.Value(),
			MetaOps:      d.tel.meta.Value(),
			BytesIn:      d.tel.bytesIn.Value(),
			BytesOut:     d.tel.bytesOut.Value(),
			Dispatches:   d.tel.dispatches.Value(),
			Handoffs:     d.tel.handoffs.Value(),
			Aggregated:   d.tel.aggregated.Value(),
			QueueRejects: d.tel.rejects.Value(),
			DedupReplays: d.tel.dedupReplays.Value(),
			Restarts:     d.tel.restarts.Value(),
		}
	})
	return s
}

// Activity returns a coarse activity stamp for quiescence detection:
// the scheduler queue depth plus a cumulative op count that advances
// whenever the daemon admits or completes work. A node is quiet between
// two samples when depth is zero both times and ops did not move — the
// signal a graceful drain waits on before decommissioning.
func (d *Daemon) Activity() (depth int, ops int64) {
	depth = d.QueueDepth()
	d.reg.View(func() {
		ops = d.tel.writes.Value() + d.tel.reads.Value() + d.tel.meta.Value() +
			d.tel.dispatches.Value() + d.tel.dedupReplays.Value()
	})
	return depth, ops
}

// handle is the RPC entry point. It wraps the per-op handler with the
// daemon's trace hop: one "ion" hop per forwarded request covering the
// whole server-side residence (queue wait and PFS dispatch included).
func (d *Daemon) handle(m *rpc.Message) *rpc.Message {
	if d.tracer == nil || m.Trace == 0 {
		return d.handleOp(m)
	}
	start := time.Now()
	resp := d.handleOp(m)
	bytes := int64(m.PayloadLen() + resp.PayloadLen())
	d.tracer.AddHop(m.Trace, "ion", start, bytes, d.cfg.ID)
	return resp
}

// SetFence raises the daemon's epoch fence: every write stamped with an
// epoch strictly below minEpoch is rejected, before it can touch the dedup
// window or the backend, from now on; unstamped writes (epoch 0) are never
// fenced. Monotonic — a lower value never lowers an established fence. The
// stack's delivery follower calls this on every daemon inside a recovery
// publish, before any client applies the post-recovery mapping, so no
// client can land a revoked-epoch write in the gap.
func (d *Daemon) SetFence(minEpoch uint64) {
	for {
		cur := d.fence.Load()
		if minEpoch <= cur || d.fence.CompareAndSwap(cur, minEpoch) {
			return
		}
	}
}

// Fence reports the current fence floor (0 = nothing fenced).
func (d *Daemon) Fence() uint64 { return d.fence.Load() }

// requests recycles the scheduler records of forwarded data requests. The
// goroutine that submitted one hands it back once Wait/Finish has delivered
// its outcome — its own, also when it ran inside an aggregate somebody else
// executed: the aggregate's holder never releases a child.
var requests = sync.Pool{New: func() any { return new(agios.Request) }}

// putRequest recycles r, cleared so the pool pins no payload.
func putRequest(r *agios.Request) {
	*r = agios.Request{}
	requests.Put(r)
}

func (d *Daemon) handleOp(m *rpc.Message) *rpc.Message {
	// Responses echo the request's identity fields (path, trace, dedup
	// stamp) and nothing else: flags and payload are set per-outcome, so
	// no response path can leak stale request state onto the wire. The
	// envelope is the transport's, returned by its Release after the write.
	resp := rpc.GetMessage()
	resp.Op, resp.Path, resp.Trace, resp.ClientID, resp.Seq = m.Op, m.Path, m.Trace, m.ClientID, m.Seq
	switch m.Op {
	case rpc.OpPing:
		// Pings double as load reports: Size carries the scheduler queue
		// depth and Offset the cumulative queue rejects, so the health
		// prober can observe saturation without a second op or RPC.
		resp.Data = []byte(d.cfg.ID)
		resp.Size = int64(d.queue.Len())
		resp.Offset = d.tel.rejects.Value()

	case rpc.OpWrite:
		// A write stamped with a revoked epoch is fenced, and never enters
		// the dedup window: a later retry under a fresh epoch must execute,
		// not replay the rejection. A fenced retry of a write that did apply
		// (its response lost before the fence rose) replays like any retry,
		// though: rejected, it would tell the client the bytes never landed,
		// and the client would re-send them under a new stamp for this node
		// to apply twice.
		fenced := m.Epoch != 0 && m.Epoch < d.fence.Load()
		if d.dedup == nil || m.Seq == 0 {
			if fenced {
				return d.rejectStale(m, resp)
			}
			d.applyWrite(m, resp)
			return resp
		}
		for {
			cw, out, replay, inflight := d.dedup.claim(m.ClientID, m.Seq)
			switch {
			case replay:
				// Already applied: repeat the outcome, do not re-execute.
				resp.Size, resp.Err = out.size, out.err
				resp.Replayed = true
				d.tel.dedupReplays.Inc()
				return resp
			case inflight != nil:
				// Another attempt at this seq is mid-execution (a retry
				// racing its original). Wait for its commit and re-claim:
				// either its outcome becomes replayable or (busy/closed,
				// never applied) the seq is claimable again.
				<-inflight
			case fenced:
				d.dedup.commit(cw, m.Seq, outcome{}, false) // never applied: release the claim
				return d.rejectStale(m, resp)
			default:
				applied := d.applyWrite(m, resp)
				// The window keeps the outcome by value: resp goes back to
				// the transport's pool with the exchange.
				d.dedup.commit(cw, m.Seq, outcome{size: resp.Size, err: resp.Err}, applied)
				return resp
			}
		}

	case rpc.OpRead:
		// Size comes straight off the wire: bound it before it sizes a
		// buffer, or one hostile frame takes the whole daemon down.
		if m.Size < 0 || m.Size > rpc.MaxData {
			resp.Err = fmt.Sprintf("ion: read size %d out of range [0, %d]", m.Size, int64(rpc.MaxData))
			return resp
		}
		req := requests.Get().(*agios.Request)
		*req = agios.Request{
			Path:     m.Path,
			Offset:   m.Offset,
			Size:     m.Size,
			Op:       agios.OpRead,
			Trace:    m.Trace,
			Priority: m.Priority,
		}
		pick, err := d.queue.Submit(req)
		if err != nil {
			putRequest(req)
			return d.pushFailed(resp, err)
		}
		d.tel.reads.Inc()
		d.tel.requestBytes.Observe(float64(m.Size))
		l, err := d.dispatch(req, pick, nil)
		putRequest(req)
		if l.lease != nil {
			// The reply goes out from the bytes the backend lent; the
			// transport releases the lease once the frame is written.
			resp.Lend(l.segs, l.lease)
			resp.Size = int64(resp.PayloadLen())
			d.tel.bytesOut.Add(resp.Size)
		}
		if err != nil {
			resp.Err = err.Error()
		}

	case rpc.OpCreate:
		d.tel.meta.Inc()
		if err := d.backend.Create(m.Path); err != nil {
			resp.Err = err.Error()
		}

	case rpc.OpStat:
		d.tel.meta.Inc()
		info, err := d.backend.Stat(m.Path)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Size = info.Size
		}

	case rpc.OpRemove:
		d.tel.meta.Inc()
		if err := d.backend.Remove(m.Path); err != nil {
			resp.Err = err.Error()
		}

	case rpc.OpFsync:
		d.tel.meta.Inc()
		if err := d.backend.Fsync(m.Path); err != nil {
			resp.Err = err.Error()
		}

	default:
		resp.Err = fmt.Sprintf("ion: unsupported op %s", m.Op)
	}
	return resp
}

// rejectStale answers a write stamped below the fence.
func (d *Daemon) rejectStale(m, resp *rpc.Message) *rpc.Message {
	f := d.fence.Load()
	d.tel.fenceRejects.Inc()
	resp.Err, resp.Epoch = rpc.StaleEpochErrText(m.Epoch, f), f
	return resp
}

// applyWrite submits one write to the scheduler queue, sees it through its
// dispatch and sets the outcome on resp. applied reports whether the
// operation reached execution: false for queue-admission failures (busy
// sheds and closed-queue rejects), which must stay replayable-by-execution
// in the dedup window; true once it ran, whatever the outcome.
func (d *Daemon) applyWrite(m *rpc.Message, resp *rpc.Message) (applied bool) {
	n := m.PayloadLen()
	segs, l := m.Lent()
	st, _ := l.(*pfs.Stage)
	req := requests.Get().(*agios.Request)
	*req = agios.Request{
		Path:     m.Path,
		Offset:   m.Offset,
		Size:     int64(n),
		Op:       agios.OpWrite,
		Data:     m.Data,
		Segs:     segs,
		Trace:    m.Trace,
		Priority: m.Priority,
	}
	pick, err := d.queue.Submit(req)
	if err != nil {
		putRequest(req)
		d.pushFailed(resp, err)
		return false
	}
	// Admission succeeded: only now does the request count as
	// ingested (a shed write was never taken on, so its bytes must
	// not appear in the daemon's intake).
	d.reg.Update(func() {
		d.tel.writes.Inc()
		d.tel.bytesIn.Add(int64(n))
	})
	d.tel.requestBytes.Observe(float64(n))
	_, err = d.dispatch(req, pick, st)
	putRequest(req)
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.Size = int64(n)
	}
	return true
}

// pushFailed turns a queue-admission failure into the right wire response:
// a saturated queue sheds with a typed busy response (the client may retry
// after the hint), a closed queue answers with a terminal error. Both
// count as queue rejects.
func (d *Daemon) pushFailed(resp *rpc.Message, err error) *rpc.Message {
	d.tel.rejects.Inc()
	if errors.Is(err, agios.ErrQueueFull) {
		resp.Busy = true
		resp.RetryAfter = d.cfg.RetryAfterHint
		return resp
	}
	resp.Err = err.Error()
	return resp
}

// hopEach records one layer hop, already timed, on a dispatched request —
// or on each of its children when it is an aggregate, since the children
// carry the client-visible trace IDs.
func (d *Daemon) hopEach(req *agios.Request, layer string, start time.Time, took time.Duration, note string) {
	if d.tracer == nil {
		return
	}
	h := telemetry.Hop{Layer: layer, Start: start, Duration: took, Bytes: req.Size, Note: note}
	if len(req.Children) == 0 {
		d.tracer.RecordHop(req.Trace, h)
		return
	}
	for _, c := range req.Children {
		h.Bytes = c.Size
		d.tracer.RecordHop(c.Trace, h)
	}
}

// dispatch sees the admitted request req through to its outcome on the
// calling (connection) goroutine. pick is what Submit returned: non-nil
// when a dispatch slot was free and the scheduler's pick — req itself —
// runs right here; nil when every slot was busy, and the goroutine parks
// until the scheduler picks req. Then it either holds a slot and executes
// the pick (req, or an aggregate headed by req), or req already ran inside
// an aggregate another submitter executed. st is req's stage, if it has one.
func (d *Daemon) dispatch(req, pick *agios.Request, st *pfs.Stage) (lent, error) {
	if pick == nil {
		var err error
		if pick, err = d.queue.Wait(req); pick == nil {
			return lent{}, err
		}
		d.tel.handoffs.Inc()
	}
	l, err := d.execute(pick, st)
	d.queue.Finish(pick, err)
	return l, err
}

// execute runs one scheduled request (possibly an aggregate) against the
// PFS and returns the backend's outcome, and for a read the lease on the
// bytes read (reads are never aggregated, so it is the submitter's own). A
// write installs st, the submitter's stage, unless it runs in an aggregate,
// which reaches the backend as one WriteAs of its merged payload.
func (d *Daemon) execute(req *agios.Request, st *pfs.Stage) (lent, error) {
	n := len(req.Children)
	d.reg.Update(func() {
		d.tel.dispatches.Inc()
		if n > 0 {
			d.tel.aggregated.Add(int64(n))
		}
	})
	if d.tracer != nil {
		note := d.schedName
		if n > 0 {
			note = fmt.Sprintf("%s merged=%d", note, n)
		}
		d.hopEach(req, "agios", req.Arrival, time.Since(req.Arrival), note)
	}
	start := time.Now()
	switch req.Op {
	case agios.OpWrite:
		var err error
		if st != nil && len(req.Children) == 0 {
			_, err = d.stager.Install(d.cfg.ID, st)
		} else {
			_, err = d.backend.WriteAs(d.cfg.ID, req.Path, req.Offset, req.Data)
		}
		took := time.Since(start)
		d.tel.dispatchLatency.ObserveDuration(took)
		d.hopEach(req, "pfs", start, took, "write")
		return lent{}, err
	case agios.OpRead:
		l, err := d.readLease(req.Path, req.Offset, int(req.Size))
		took := time.Since(start)
		d.tel.dispatchLatency.ObserveDuration(took)
		d.hopEach(req, "pfs", start, took, "read")
		return l, err
	default:
		return lent{}, fmt.Errorf("ion: unknown scheduled op %v", req.Op)
	}
}
