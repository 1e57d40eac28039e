// Package fwd is the forwarding client: the GekkoFWD client role. It
// exposes the same POSIX-like FileSystem interface as the PFS itself, so
// application kernels are oblivious to whether their I/O goes directly to
// the parallel file system or through I/O nodes.
//
// Where the real GekkoFWD intercepts system calls via the GekkoFS client
// library, Go offers no LD_PRELOAD equivalent, so the interposition point
// is this library boundary (see DESIGN.md §1). Everything downstream is
// structurally faithful:
//
//   - requests are split into fixed-size chunks;
//   - each chunk is routed to one of the application's allocated I/O nodes
//     by hashing the file path and chunk index (GekkoFS's distribution,
//     restricted to the allocation as in GekkoFWD); contiguous chunks that
//     land on the same I/O node are coalesced into one wire request (up to
//     CoalesceLimit), so a large sequential write costs one RPC per
//     responsible node, not one per chunk;
//   - the allocation can change at any time without disrupting the
//     application: ApplyMap installs a mapping update (a livestack.Stack's
//     bus follower calls it for every client inside Publish), and
//     in-flight requests complete on the old routes;
//   - an empty allocation means direct PFS access;
//   - when an I/O node cannot take a request, the PFS does, and the bytes
//     are counted once. That is the one fallback rule (DESIGN.md §8 has
//     the table): rpc sorts every call into one rpc.Class, classRules maps
//     the class to an outcome — served, shed (overload), unreachable or
//     fenced (a write under a revoked epoch) — and the four metadata ops
//     (meta), every write span (sendSpan) and every read span (readSpan)
//     act on that outcome and on nothing else.
//
// The data path allocates nothing per operation: the path is FNV-hashed
// once per op and extended per chunk index without constructing a hasher
// (see fnvString/fnvChunk), the route table is an immutable snapshot
// loaded with one atomic read (no lock, no map lookup per chunk), span
// building works in a caller-provided stack buffer, a lone span is a plain
// method call and several fan out on a pooled record (fanOp) whose workers
// claim spans by atomic index, and a read span hands the transport its
// window of the caller's buffer (rpc.Message.Dst) so the reply's payload is
// decoded in place. The snapshot is a slice of target records — address,
// pooled connection, throttle gate — and a target is what every call below
// the span logic (callION, timedCall, the hedge) is handed.
package fwd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/latency"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// DefaultChunkSize is the GekkoFS chunking unit (512 KiB).
const DefaultChunkSize = 512 * units.KiB

// DefaultCoalesceLimit caps a coalesced span (one wire request) at 2 MiB:
// large enough to amortize per-RPC overhead over four default chunks,
// small enough that one span cannot monopolize an I/O node's queue or
// defeat the chunk-level fan-out across nodes — and that a large stream to
// a single I/O node still travels as several spans on several pooled
// conns, one span's transfer overlapping another's PFS copy.
const DefaultCoalesceLimit = 2 * units.MiB

// Config parameterizes a client.
type Config struct {
	// AppID is the application identity used to look up allocations in
	// mapping updates.
	AppID string
	// Direct is the file system used when the application has no I/O
	// nodes (and for deployments without forwarding).
	Direct pfs.FileSystem
	// ChunkSize is the request-splitting unit; ≤0 selects
	// DefaultChunkSize.
	ChunkSize int64
	// CoalesceLimit caps how many contiguous bytes routed to the same I/O
	// node are merged into a single wire request; ≤0 selects
	// DefaultCoalesceLimit, and any value is clamped to rpc.MaxData so a
	// span always fits one frame. A limit below ChunkSize effectively
	// disables coalescing (every span is a single chunk).
	CoalesceLimit int64
	// PoolSize is the RPC connection pool per I/O node; ≤0 selects the
	// transport default.
	PoolSize int
	// RPC configures the failure-tolerance behaviour of every connection
	// this client dials: per-call deadlines, bounded retries, circuit
	// breaker. The zero value keeps the transport's legacy behaviour
	// (block forever, no retries, no breaker).
	RPC rpc.Options
	// Dedup stamps every forwarded write with this client's (clientID,
	// seq) identity so daemons with a dedup window can recognise
	// transport-retried writes and replay the cached outcome instead of
	// re-applying them (exactly-once; see DESIGN.md "Integrity model").
	// Off by default: unstamped frames are wire-identical to the
	// pre-integrity protocol.
	Dedup bool
	// Throttle configures per-I/O-node adaptive admission (AIMD window,
	// hint-paced busy retries, degrade-to-direct under sustained
	// saturation). The zero value disables throttling; busy responses are
	// then still honoured with hint-paced retries before degrading.
	Throttle ThrottleConfig
	// QoS is the service class this application's traffic belongs to
	// (see internal/qos): its token bucket gates admission to the
	// forwarding path ahead of span building, its tier rides every wire
	// request as the frame priority byte, and scavenger-tier traffic
	// degrades to the direct PFS path when its bucket is empty. Nil (the
	// default) means unclassed: no admission check beyond one nil test,
	// no priority byte, byte-for-byte pre-QoS behaviour.
	QoS *qos.Class
	// EpochFencing stamps every forwarded write with the epoch of the
	// route view it was built from (the mapping version the arbiter
	// published). A daemon whose fence floor is above that epoch fences
	// the write (rpc.ClassFenced) — a remap signal, not a failure: the
	// client waits for a fresher mapping (up to EpochWait), rebuilds the
	// span routing against it, and retries; if no fresher view arrives it
	// falls back to the direct PFS path, which is byte-safe because a
	// fenced write was never applied. Off by default: requests carry no
	// epoch trailer and are wire-identical to the pre-epoch protocol.
	EpochFencing bool
	// EpochWait bounds how long a fenced write waits for a post-recovery
	// mapping before degrading to the direct path; ≤0 selects 2s. Only
	// meaningful with EpochFencing.
	EpochWait time.Duration
	// Hedge configures tail-tolerant hedged requests (see hedge.go): a
	// span RPC that exceeds an adaptive per-I/O-node latency percentile
	// launches one budget-capped backup attempt — writes as a same-stamp
	// duplicate the daemon's dedup window makes exactly-once (so hedging
	// requires Dedup), reads against the direct PFS path. The zero value
	// disables hedging; the data path then pays one nil check.
	Hedge HedgeConfig
	// Latency, when set, receives one observation per successful span RPC
	// keyed by I/O-node address. Share it with the health prober's sketch
	// so fail-slow scoring sees client-observed service latency, not just
	// probe RTTs; hedging reads its deadlines from the same sketch. Nil
	// disables observation (and a hedging client creates a private one).
	Latency *latency.Sketch
	// Telemetry receives the client's metrics (app-labeled series:
	// fwd_bytes_out_total{app="…"}, …) and is propagated to the rpc
	// connections it dials. Nil selects a private registry so Stats()
	// always works.
	Telemetry *telemetry.Registry
	// Tracer opens one trace per file operation and threads its ID
	// through the rpc layer to the I/O nodes. Nil disables tracing.
	Tracer *telemetry.Tracer
}

// Stats counts client-side activity.
type Stats struct {
	ForwardedOps   int64 // wire requests issued (coalesced spans count once)
	DirectOps      int64
	FailoverOps    int64
	ShedResponses  int64 // busy responses observed (server-side sheds)
	DegradedOps    int64 // ops satisfied on the direct path due to overload
	ReplayedWrites int64 // write responses served from a daemon's dedup window
	BytesOut       int64
	BytesIn        int64
	RemapsApplied  int64
}

// target is everything the client keeps per I/O node: its address, the
// pooled connection and the AIMD throttle gate. One is made the first time
// an address is allocated and reused by every later view that names the
// address, so breaker state and the throttle window survive a remap away
// and back; only ReleaseConn and Close drop one.
type target struct {
	addr string
	conn *rpc.Client
	gate *ionGate // nil when throttling is disabled
}

// routeView is an immutable snapshot of the routing state: the allocation,
// one target per allocated I/O node in allocation order. The data path
// loads it with one atomic read per operation and never touches a lock or
// a map; SetIONs/ApplyMap publish a fresh snapshot on every remap.
type routeView struct {
	targets []*target
	epoch   uint64 // mapping version this view was built from (0 = manual SetIONs)
}

// Client is the forwarding client. It implements pfs.FileSystem.
type Client struct {
	cfg Config

	// clientID and seq are the exactly-once write identity (set when
	// cfg.Dedup is on). The ID is unique per Client instance so two
	// clients sharing an AppID never collide in a daemon's dedup window;
	// seq starts at 1 and a transport- or busy-retried span reuses the
	// seq of its first attempt (the retry loops sit below the stamping).
	clientID string
	seq      atomic.Uint64

	// view is the lock-free routing snapshot the data path reads, and so
	// the allocation; mu serialises installs and guards the state they are
	// built from (the per-node targets and the mapping version).
	view atomic.Pointer[routeView]

	mu      sync.Mutex
	targets map[string]*target // address → per-node record, kept across remaps
	ver     uint64
	fence   uint64        // highest revocation floor seen in a mapping update
	changed chan struct{} // the view-changed signal (see awaitView)

	// Counters live on reg (app-labeled); coupled counters are updated in
	// one reg.Update group and Stats() reads under reg.View, so snapshots
	// are never torn (see ion.Daemon.Stats).
	reg   *telemetry.Registry
	stats struct {
		forwarded, direct, failover, bytesOut, bytesIn, remaps *telemetry.Counter
		shed, degraded, replayed                               *telemetry.Counter
		epochRetries                                           *telemetry.Counter // nil unless EpochFencing
	}

	// hedge is the hedged-request state (nil unless cfg.Hedge.Enabled —
	// the data path pays one nil check).
	hedge *hedgeState

	// qos is the admission state built from cfg.QoS (nil when the app is
	// unclassed — the forwarded data path then pays exactly one nil
	// check), and wirePrio is the priority byte stamped on every
	// forwarded request (0 = no trailer on the wire).
	qos      *qosState
	wirePrio uint8

	closed atomic.Bool
}

// qosState is a classed client's admission machinery: the class, its
// token bucket, and the per-tenant observability series.
type qosState struct {
	class  *qos.Class
	bucket *qos.Bucket
	sleep  func(time.Duration) // pacing seam (time.Sleep in production)

	admitted *telemetry.Counter
	deferred *telemetry.Counter
	degraded *telemetry.Counter
	latency  *telemetry.Histogram
}

// degradeOrPace applies the class's admission policy to an op of n bytes.
// It reports true when the op must be satisfied on the direct PFS path
// (scavenger tier with an empty bucket — no debt, no queueing behind the
// bucket). Guaranteed and standard ops are never refused: an empty bucket
// defers them for the bucket's repayment time instead (pacing), so their
// admitted rate converges on the configured one while order is preserved.
func (q *qosState) degradeOrPace(n int64) (degrade bool) {
	if q.class.Tier == qos.TierScavenger {
		if !q.bucket.TryTake(n) {
			q.degraded.Inc()
			return true
		}
		q.admitted.Inc()
		return false
	}
	if d := q.bucket.Reserve(n); d > 0 {
		q.deferred.Inc()
		q.sleep(d)
	}
	q.admitted.Inc()
	return false
}

var _ pfs.FileSystem = (*Client)(nil)

// NewClient returns a client in direct mode; call SetIONs or ApplyMap to
// attach it to a forwarding allocation.
func NewClient(cfg Config) (*Client, error) {
	if cfg.AppID == "" {
		return nil, errors.New("fwd: AppID is required")
	}
	if cfg.Direct == nil {
		return nil, errors.New("fwd: a direct file system is required")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.CoalesceLimit <= 0 {
		cfg.CoalesceLimit = DefaultCoalesceLimit
	}
	if cfg.CoalesceLimit > rpc.MaxData {
		cfg.CoalesceLimit = rpc.MaxData
	}
	cfg.Throttle = cfg.Throttle.withDefaults()
	if cfg.Hedge.Enabled {
		if !cfg.Dedup {
			return nil, errors.New("fwd: hedged requests require Dedup (the daemon's dedup window is what makes a duplicated write exactly-once)")
		}
		cfg.Hedge = cfg.Hedge.withDefaults()
		if cfg.Latency == nil {
			cfg.Latency = latency.NewSketch(0)
		}
	}
	c := &Client{cfg: cfg, targets: make(map[string]*target)}
	c.reg = cfg.Telemetry
	if c.reg == nil {
		c.reg = telemetry.New()
	}
	label := fmt.Sprintf("{app=%q}", cfg.AppID)
	c.stats.forwarded = c.reg.Counter("fwd_forwarded_ops_total" + label)
	c.stats.direct = c.reg.Counter("fwd_direct_ops_total" + label)
	c.stats.failover = c.reg.Counter("fwd_failover_ops_total" + label)
	c.stats.bytesOut = c.reg.Counter("fwd_bytes_out_total" + label)
	c.stats.bytesIn = c.reg.Counter("fwd_bytes_in_total" + label)
	c.stats.remaps = c.reg.Counter("fwd_remaps_applied_total" + label)
	c.stats.shed = c.reg.Counter("fwd_shed_responses_total" + label)
	c.stats.degraded = c.reg.Counter("fwd_degraded_ops_total" + label)
	c.stats.replayed = c.reg.Counter("fwd_replayed_writes_total" + label)
	if cfg.Dedup {
		c.clientID = fmt.Sprintf("%s#%d", cfg.AppID, clientInstance.Add(1))
	}
	if cfg.EpochFencing {
		if cfg.EpochWait <= 0 {
			cfg.EpochWait = 2 * time.Second
		}
		c.cfg.EpochWait = cfg.EpochWait
		c.stats.epochRetries = c.reg.Counter("epoch_stale_retries_total" + label)
	}
	if cfg.Hedge.Enabled {
		c.hedge = &hedgeState{
			cfg:      cfg.Hedge,
			bucket:   hedgeBucket{tokens: hedgeMaxTokens},
			launched: c.reg.Counter("fwd_hedge_launched_total" + label),
			wins:     c.reg.Counter("fwd_hedge_wins_total" + label),
			denied:   c.reg.Counter("fwd_hedge_denied_total" + label),
		}
	}
	if cfg.QoS != nil {
		c.wirePrio = cfg.QoS.WirePriority()
		c.qos = &qosState{
			class:    cfg.QoS,
			bucket:   qos.NewBucket(cfg.QoS.Rate, cfg.QoS.Burst, c.reg.Gauge("qos_tokens_x1000"+label)),
			sleep:    time.Sleep,
			admitted: c.reg.Counter("qos_admitted_total" + label),
			deferred: c.reg.Counter("qos_deferred_total" + label),
			degraded: c.reg.Counter("qos_degraded_total" + label),
			latency: c.reg.Histogram(
				fmt.Sprintf("qos_op_latency_seconds{class=%q}", cfg.QoS.Name),
				telemetry.LatencyBuckets()),
		}
	}
	return c, nil
}

// clientInstance distinguishes Client instances that share an AppID (e.g.
// one per rank) so their dedup identities never collide within a process.
var clientInstance atomic.Uint64

// SetIONs installs a new allocation. Connections to previously used I/O
// nodes are kept pooled so a later remap back is cheap and in-flight
// requests are never disturbed. A closed client ignores it.
func (c *Client) SetIONs(addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed.Load() {
		c.setIONsLocked(addrs)
	}
}

// setIONsLocked installs an allocation and publishes the new route view.
// An unchanged allocation keeps the current view's targets, so only the
// epoch moves. Callers hold c.mu.
func (c *Client) setIONsLocked(addrs []string) {
	v := &routeView{epoch: c.ver}
	same := func(t *target, addr string) bool { return t.addr == addr }
	if old := c.view.Load(); old != nil && slices.EqualFunc(old.targets, addrs, same) {
		v.targets = old.targets
	} else {
		v.targets = make([]*target, len(addrs))
		for i, a := range addrs {
			t := c.targets[a]
			if t == nil {
				t = &target{addr: a, conn: rpc.Dial(a, c.cfg.PoolSize).
					WithOptions(c.cfg.RPC).
					Instrument(c.reg, c.cfg.Tracer)}
				if c.cfg.Throttle.Enabled {
					t.gate = newIonGate(c.cfg.Throttle,
						c.reg.Gauge(fmt.Sprintf("fwd_throttle_window_x1000{app=%q,ion=%q}", c.cfg.AppID, a)))
				}
				c.targets[a] = t
			}
			v.targets[i] = t
		}
	}
	c.publishLocked(v)
	c.stats.remaps.Add(1)
}

// publishLocked installs v (nil on Close) and wakes every parked wait; with
// none parked it costs one nil check. Callers hold c.mu.
func (c *Client) publishLocked(v *routeView) {
	c.view.Store(v)
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// awaitView returns the first route view ok accepts — the current one or a
// later install's — and true; nil and false on timeout or Close. The first
// waiter makes the view-changed signal; the next publishLocked closes and
// clears it. ok runs without c.mu and may see a nil view.
func (c *Client) awaitView(timeout time.Duration, ok func(*routeView) bool) (*routeView, bool) {
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		c.mu.Lock()
		if c.changed == nil {
			c.changed = make(chan struct{})
		}
		v, changed := c.view.Load(), c.changed
		c.mu.Unlock()
		if c.closed.Load() { // Close sets closed before it takes c.mu to wake us
			return nil, false
		}
		if ok(v) {
			return v, true
		}
		select {
		case <-changed:
		case <-expired.C:
			return nil, false
		}
	}
}

// AwaitIONs waits up to timeout for an allocation ok accepts — the current
// one or one a later ApplyMap or SetIONs installs — and returns it and
// true. On timeout or Close it returns the last allocation it saw and
// false. ok runs without the client's lock held.
func (c *Client) AwaitIONs(timeout time.Duration, ok func(ions []string) bool) (ions []string, held bool) {
	_, held = c.awaitView(timeout, func(*routeView) bool {
		ions = c.IONs() // if newer than awaitView's view, its install woke the wait
		return ok(ions)
	})
	return ions, held
}

// IONs returns the current allocation.
func (c *Client) IONs() (ions []string) {
	if v := c.loadView(); v != nil {
		ions = make([]string, len(v.targets))
		for i, t := range v.targets {
			ions[i] = t.addr
		}
	}
	return ions
}

// ApplyMap installs the allocation a mapping update assigns to this
// application. Stale versions are ignored. The version check and the
// install happen under one critical section, so two updates delivered
// out of order can never leave the older allocation installed with the
// newer version recorded. A closed client ignores every map.
func (c *Client) ApplyMap(m mapping.Map) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A map is fresh if its version advances — or, same-version, if its
	// fence does (an arbiter recovery republishes the surviving allocation
	// under a raised revocation floor without necessarily re-solving).
	// Version 0 (a bus's map before its first publication) applies every
	// time until the client has installed a versioned map, and is stale
	// after: a follower that reads the bus's current v0 just as the first
	// publication reaches it must not roll back to the empty map.
	if c.closed.Load() || (m.Version != 0 || c.ver != 0) && m.Version <= c.ver && m.Fence <= c.fence {
		return
	}
	c.ver = m.Version
	if m.Fence > c.fence {
		c.fence = m.Fence
	}
	c.setIONsLocked(m.For(c.cfg.AppID))
}

// ReleaseConn closes and forgets the target (pooled connection and
// throttle gate) for addr, provided addr is not in the current allocation.
// Remaps deliberately keep targets of former nodes so a map-back is
// cheap; a decommissioned I/O node never comes back on its address, so
// the stack calls this when one leaves for good — otherwise an elastic
// pool would grow the target table with every scale event. Releasing an
// unknown or still-allocated address is a no-op. Ops in flight on an old
// route view may see their calls fail on the closed connection; they
// take the same failover path as any other unreachable node.
func (c *Client) ReleaseConn(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.targets[addr]; t != nil && !slices.Contains(c.IONs(), addr) {
		t.conn.Close()
		delete(c.targets, addr)
	}
}

// Close releases all pooled connections.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishLocked(nil)
	for _, t := range c.targets {
		t.conn.Close()
	}
	clear(c.targets)
	return nil
}

// Stats returns a consistent snapshot of client counters (read under the
// registry's view gate, so no grouped update is half-visible).
func (c *Client) Stats() Stats {
	var s Stats
	c.reg.View(func() {
		s = Stats{
			ForwardedOps:   c.stats.forwarded.Value(),
			DirectOps:      c.stats.direct.Value(),
			FailoverOps:    c.stats.failover.Value(),
			ShedResponses:  c.stats.shed.Value(),
			DegradedOps:    c.stats.degraded.Value(),
			ReplayedWrites: c.stats.replayed.Value(),
			BytesOut:       c.stats.bytesOut.Value(),
			BytesIn:        c.stats.bytesIn.Value(),
			RemapsApplied:  c.stats.remaps.Value(),
		}
	})
	return s
}

// trace opens a per-operation trace; the zero opTrace (tracing disabled)
// makes done a no-op and stamps ID 0 on the wire, so the hot path pays
// only a nil check.
func (c *Client) trace(op, path string) opTrace {
	tr := c.cfg.Tracer.Start(c.cfg.AppID, op, path)
	return opTrace{t: tr, id: tr.TraceID()}
}

// opTrace is an operation's trace and its wire ID. The ID is copied out
// because the tracer recycles the record once done finishes it: whatever
// still names the op after that — a losing hedge backup's request — carries
// this ID, which no longer matches any live trace, never the record's next.
type opTrace struct {
	t  *telemetry.Trace
	id uint64
}

// done records the fwd hop — covering chunking and RPC fan-out, from the
// trace's own Begin — and finishes the trace.
func (t opTrace) done(bytes int64, note string) {
	if t.t == nil {
		return
	}
	t.t.Hop("fwd", t.t.Begin, bytes, note)
	t.t.Finish()
}

// chunkNotes precomputes the common "chunks=N" hop notes so the data path
// never formats a string per operation (the Sprintf argument would be
// evaluated even with tracing off).
var chunkNotes = func() [17]string {
	var n [17]string
	for i := range n {
		n[i] = fmt.Sprintf("chunks=%d", i)
	}
	return n
}()

func chunkNote(n int) string {
	if n < len(chunkNotes) {
		return chunkNotes[n]
	}
	return fmt.Sprintf("chunks=%d", n)
}

// FNV-1a (64-bit) constants, inlined from hash/fnv so per-chunk routing
// never constructs a hasher or materializes index bytes.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString extends an FNV-1a state with the bytes of s. Seed with
// fnvOffset64 for a fresh hash.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvChunk extends a path hash with the chunk index, encoded as the same
// eight little-endian bytes the original hash/fnv-based routing wrote —
// TestRouteHashMatchesFNV pins the bit-for-bit equivalence, so chunk
// placement is unchanged across the rewrite.
func fnvChunk(h uint64, chunkIdx int64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(chunkIdx>>i))) * fnvPrime64
	}
	return h
}

// loadView returns the current routing snapshot (nil means direct mode).
func (c *Client) loadView() *routeView {
	v := c.view.Load()
	if v == nil || len(v.targets) == 0 {
		return nil
	}
	return v
}

// metaTarget returns the I/O node for metadata ops on path (nil for direct
// mode). Metadata always routes by path hash alone, like GekkoFS.
func (c *Client) metaTarget(path string) *target {
	v := c.loadView()
	if v == nil {
		return nil
	}
	return v.targets[fnvChunk(fnvString(fnvOffset64, path), 0)%uint64(len(v.targets))]
}

// chunkCount returns how many chunks [off, off+n) touches.
func (c *Client) chunkCount(off, n int64) int {
	if n <= 0 {
		return 0
	}
	cs := c.cfg.ChunkSize
	return int((off+n-1)/cs - off/cs + 1)
}

// span is one coalesced wire request: a contiguous byte range whose chunks
// all route to the same I/O node, capped at cfg.CoalesceLimit.
type span struct {
	off, n int64
	chunks int
	target int // index into routeView.targets
}

// buildSpans splits [off, off+n) into chunk-aligned extents, routes each
// chunk by the incremental FNV hash, and merges contiguous extents that
// share a target into spans. The caller passes a (typically
// stack-allocated) buffer to append into, so the common case allocates
// nothing.
func (c *Client) buildSpans(v *routeView, path string, off, n int64, out []span) []span {
	cs := c.cfg.ChunkSize
	limit := c.cfg.CoalesceLimit
	ph := fnvString(fnvOffset64, path)
	nAddrs := uint64(len(v.targets))
	var cur span
	for n > 0 {
		idx := off / cs
		ext := cs - off%cs
		if ext > n {
			ext = n
		}
		t := int(fnvChunk(ph, idx) % nAddrs)
		if cur.chunks > 0 && cur.target == t && cur.n+ext <= limit {
			cur.n += ext
			cur.chunks++
		} else {
			if cur.chunks > 0 {
				out = append(out, cur)
			}
			cur = span{off: off, n: ext, chunks: 1, target: t}
		}
		off += ext
		n -= ext
	}
	if cur.chunks > 0 {
		out = append(out, cur)
	}
	return out
}

// busyRetries is how many times callION re-sends a shed request, paced by
// the node's retry-after hint, before the PFS takes it. One forwarded span
// costs at most (1+maxEpochRemaps) × 2 (hedge) × (1+busyRetries) ×
// (1+RPC.MaxRetries) × 2 (stale re-dial) wire requests — 48 at the
// defaults (DESIGN.md §8; the outcome table pins it).
const busyRetries = 2

// errSaturated is callION's shed when the node's gate refuses a request: a
// busy-class error decided on this side of the wire.
var errSaturated = &rpc.Error{Class: rpc.ClassBusy, Err: errors.New("fwd: I/O node saturated")}

// callION issues one RPC through the overload-protection path: the per-ION
// AIMD gate (when throttling is enabled) and up to busyRetries re-sends of
// a shed request, paced by the server's retry-after hint with jitter. What
// it returns is Call's: a busy-class error is a request the node never
// accepted — shed past the last re-send, or refused at once by a gate that
// finds the node saturated — and the caller's fallback rule sends it to the
// PFS. Any other class passes through, having released the gate slot the
// way classRules says: grown when the node took the request on, else left
// alone. A non-nil it lets a hedge that won abandon this call (see
// hedge.go): the window learns nothing from an answer nobody took.
//
// The returned response owns pooled transport buffers: the caller must
// copy what it needs out of resp and call resp.Release (busy responses
// are consumed and released here).
func (c *Client) callION(t *target, req *rpc.Message, it *rpc.Interrupt) (*rpc.Message, error) {
	g := t.gate
	for attempt := 0; ; attempt++ {
		if g != nil && !g.acquire() {
			return nil, errSaturated
		}
		resp, err := t.conn.CallInterruptible(req, it)
		class := rpc.ClassOf(err)
		if class != rpc.ClassBusy {
			if g != nil && classRules[class].took {
				g.onSuccess()
			} else if g != nil {
				g.onError()
			}
			return resp, err
		}
		resp.Release()
		c.stats.shed.Inc()
		hint := err.(*rpc.Error).RetryAfter
		if g != nil {
			g.onBusy(hint)
		}
		if attempt == busyRetries {
			return nil, err
		}
		if g == nil {
			// No gate to pace the retry: sleep the jittered hint here.
			time.Sleep(equalJitter(cmp.Or(hint, time.Millisecond)))
		}
	}
}

// errIfClosed guards every file operation: a closed client must fail
// loudly rather than silently fall back to the direct path.
func (c *Client) errIfClosed() error {
	if c.closed.Load() {
		return rpc.ErrClosed
	}
	return nil
}

// outcome is what became of one request offered to an I/O node. It is the
// client's one fallback rule (DESIGN.md §8): when the I/O node cannot take
// a request the PFS does, and the bytes are counted once.
type outcome uint8

const (
	// served: the node answered, or the request could not be sent at all.
	// The response — or the error, mapped by wireError — is the result.
	served outcome = iota
	// shed: the node never accepted the request (busy past busyRetries, or
	// its gate is saturated). The PFS takes it, as a degrade.
	shed
	// unreachable: deadlines and retries ran out, the breaker is open, or
	// the conn was released under the op. The PFS takes it, as a failover.
	unreachable
	// fenced: a write stamped with a revoked epoch, refused before it
	// touched the backend. It is sent again over a fresher view, or — none
	// in reach — taken by the PFS. Only writes are fenced; for every other
	// op the rejection is the answer, as with served.
	fenced
)

// hopNotes names an outcome in a metadata op's fwd hop.
var hopNotes = [...]string{served: "forwarded", shed: "degraded", unreachable: "failover", fenced: "forwarded"}

// direct reports whether the PFS must take the request over as it stands.
func (o outcome) direct() bool { return o == shed || o == unreachable }

// classRules is everything the client makes of the class rpc sorted a call
// into: the outcome the fallback rule acts on; whether the node took the
// request on, so its throttle window may grow (callION; a shed has its own
// path there); and whether the call's duration is a sample of the node's
// service latency (timedCall) — only an accepted call is: sheds and
// transport failures have their own planes, overload detection and the
// breaker. A closed conn is a node released under the op's route view —
// gone for good, the strongest form of unreachable. An interrupted call is
// a primary abandoned to its winning hedge; hedged hands over the backup's
// result instead, so none reaches classify. An error rpc did not produce (a
// hedged read's PFS error) is of the app class.
var classRules = [...]struct {
	out          outcome
	took, sample bool
}{
	rpc.ClassOK:          {served, true, true},
	rpc.ClassApp:         {served, true, false},
	rpc.ClassBusy:        {shed, false, false},
	rpc.ClassFenced:      {fenced, true, false},
	rpc.ClassLocal:       {served, false, false},
	rpc.ClassClosed:      {unreachable, false, false},
	rpc.ClassInterrupted: {served, false, true},
	rpc.ClassUnavailable: {unreachable, false, false},
}

// classify turns what callION (or hedged, once the hedge has chosen)
// returned into the outcome. It is the only place that decides a fallback,
// and it counts each fallback once: fwd_degraded_ops_total for a shed,
// fwd_failover_ops_total for an unreachable node. Without EpochFencing the
// client stamps no epoch, so a fenced answer is an answer like any other.
func (c *Client) classify(err error) outcome {
	out := classRules[rpc.ClassOf(err)].out
	switch {
	case out == shed:
		c.stats.degraded.Inc()
	case out == unreachable:
		c.stats.failover.Inc()
	case out == fenced && !c.cfg.EpochFencing:
		return served
	}
	return out
}

// wireError gives an application error that crossed the wire as text its
// sentinel back, so errors.Is holds on the forwarded path exactly as it
// does in direct mode.
func wireError(err error, path string) error {
	switch {
	case err == nil:
		return nil
	case strings.Contains(err.Error(), pfs.ErrNotExist.Error()):
		return fmt.Errorf("%w: %s", pfs.ErrNotExist, path)
	case strings.Contains(err.Error(), pfs.ErrShortRead.Error()):
		return pfs.ErrShortRead
	}
	return err
}

// meta is the one metadata-op path: route by path hash, offer the request
// to that I/O node, and let the outcome decide whether its answer or the
// PFS's is the result. The fwd hop names which it was.
func (c *Client) meta(op rpc.Op, path string) (fi pfs.FileInfo, err error) {
	if err := c.errIfClosed(); err != nil {
		return fi, err
	}
	tr := c.trace(op.String(), path)
	note := "direct"
	if t := c.metaTarget(path); t == nil {
		c.stats.direct.Inc()
		fi, err = c.directMeta(op, path)
	} else {
		c.stats.forwarded.Inc()
		resp, rerr := c.callION(t, &rpc.Message{Op: op, Path: path, Trace: tr.id, Priority: c.wirePrio}, nil)
		out := c.classify(rerr)
		note = hopNotes[out]
		if out.direct() {
			fi, err = c.directMeta(op, path)
		} else if err = wireError(rerr, path); err == nil {
			fi = pfs.FileInfo{Path: path, Size: resp.Size}
		}
		resp.Release()
	}
	tr.done(0, note)
	return fi, err
}

// directMeta runs a metadata op on the direct PFS path.
func (c *Client) directMeta(op rpc.Op, path string) (fi pfs.FileInfo, err error) {
	switch op {
	case rpc.OpCreate:
		err = c.cfg.Direct.Create(path)
	case rpc.OpStat:
		fi, err = c.cfg.Direct.Stat(path)
	case rpc.OpRemove:
		err = c.cfg.Direct.Remove(path)
	case rpc.OpFsync:
		err = c.cfg.Direct.Fsync(path)
	}
	return fi, err
}

// Create implements pfs.FileSystem.
func (c *Client) Create(path string) error {
	_, err := c.meta(rpc.OpCreate, path)
	return err
}

// Stat implements pfs.FileSystem.
func (c *Client) Stat(path string) (pfs.FileInfo, error) {
	return c.meta(rpc.OpStat, path)
}

// Remove implements pfs.FileSystem.
func (c *Client) Remove(path string) error {
	_, err := c.meta(rpc.OpRemove, path)
	return err
}

// Fsync implements pfs.FileSystem.
func (c *Client) Fsync(path string) error {
	_, err := c.meta(rpc.OpFsync, path)
	return err
}

// admit is the admission step Write and Read share. It sits ahead of span
// building, so an op that goes direct never touches the wire. It returns
// the view to fan the op out over, or nil when the whole op belongs on the
// direct PFS path: the application holds no I/O nodes, or its QoS class is
// scavenger and the bucket is empty (the hop note then says "degraded").
// A whole-op direct route is counted here, in one group so no Stats()
// snapshot sees it torn; out is the bytes a write moves (a read counts its
// bytes as they arrive). t0 is set for a classed client's op in forwarding
// mode — the caller defers observeSince(t0); an unclassed client pays one
// nil check.
func (c *Client) admit(off, n, out int64) (v *routeView, note string, t0 time.Time) {
	v = c.loadView()
	degraded := false
	if q := c.qos; q != nil && v != nil {
		t0 = time.Now()
		degraded = q.degradeOrPace(n)
	}
	note = chunkNote(c.chunkCount(off, n))
	if v != nil && !degraded {
		return v, note, t0
	}
	if degraded {
		note = "degraded"
	}
	c.reg.Update(func() {
		if degraded {
			c.stats.degraded.Inc()
		}
		c.stats.direct.Inc()
		c.stats.bytesOut.Add(out)
	})
	return nil, note, t0
}

// observeSince records a classed op's latency, admission pacing included.
func (q *qosState) observeSince(t0 time.Time) { q.latency.ObserveDuration(time.Since(t0)) }

// maxParallelSpans bounds the per-request fan-out of span RPCs, like
// GekkoFS's bounded in-flight chunk operations.
const maxParallelSpans = 8

// fanOp is one multi-span op in flight: the arguments every span call
// shares, the spans, and a result slot per span. Records are pooled, and
// work is the bound method value built once with the record, so running an
// op allocates nothing: `go f.work()` starts a worker without a closure, and
// each worker claims spans by atomic index.
type fanOp struct {
	c     *Client
	v     *routeView
	path  string
	off   int64
	p     []byte
	tr    opTrace
	depth int
	read  bool

	spans []span
	done  []spanResult
	// The fixed buffers hold every op of up to maxParallelSpans spans; a
	// longer one spills to slices that go with the op.
	spanBuf [maxParallelSpans]span
	doneBuf [maxParallelSpans]spanResult

	next atomic.Int32
	wg   sync.WaitGroup
	work func()
}

type spanResult struct {
	n   int
	err error
}

var fanOps sync.Pool // *fanOp

func (f *fanOp) worker() {
	f.run()
	f.wg.Done()
}

// run serves spans until none is left to claim.
func (f *fanOp) run() {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.spans) {
			return
		}
		r := &f.done[i]
		if f.read {
			r.n, r.err = f.c.readSpan(f.v, f.path, f.off, f.p, f.spans[i], f.tr)
		} else {
			r.n, r.err = f.c.sendSpan(f.v, f.path, f.off, f.p, f.spans[i], f.tr, f.depth)
		}
	}
}

// fanOut runs an op's spans concurrently — at most maxParallelSpans at a
// time, the calling goroutine serving spans alongside the workers it
// starts, none of which outlives the call — and returns the op's byte
// count and the first error in span order. A write counts every span's
// bytes. A read counts the contiguous prefix: it stops at the first short
// span, so bytes read beyond a hole never inflate the count the
// application sees. Only multi-span ops come here: a lone span is a plain
// method call in its caller.
func (c *Client) fanOut(v *routeView, path string, off int64, p []byte, spans []span, tr opTrace, depth int, read bool) (total int, err error) {
	f, _ := fanOps.Get().(*fanOp)
	if f == nil {
		f = new(fanOp)
		f.work = f.worker
	}
	f.c, f.v, f.path, f.off, f.p, f.tr, f.depth, f.read = c, v, path, off, p, tr, depth, read
	f.spans = append(f.spanBuf[:0], spans...)
	f.done = append(f.doneBuf[:0], make([]spanResult, len(spans))...)
	f.next.Store(0)
	workers := min(len(spans), maxParallelSpans) - 1
	f.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go f.work()
	}
	f.run()
	f.wg.Wait()

	for i, r := range f.done {
		total += r.n
		if read && int64(r.n) < spans[i].n {
			break
		}
	}
	for _, r := range f.done {
		if r.err != nil {
			err = r.err
			break
		}
	}
	// Nothing the op referenced stays reachable from the pool.
	f.doneBuf = [maxParallelSpans]spanResult{}
	f.c, f.v, f.path, f.p, f.tr, f.spans, f.done = nil, nil, "", nil, opTrace{}, nil, nil
	fanOps.Put(f)
	return total, err
}

// Write implements pfs.FileSystem: the request is split into chunks, each
// routed to its responsible I/O node; contiguous same-target chunks are
// coalesced into one wire request. Span RPCs are issued concurrently, as
// the GekkoFS client issues chunk RPCs.
func (c *Client) Write(path string, off int64, p []byte) (int, error) {
	if err := c.errIfClosed(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	tr := c.trace("write", path)
	v, note, t0 := c.admit(off, int64(len(p)), int64(len(p)))
	if !t0.IsZero() {
		defer c.qos.observeSince(t0)
	}
	var k int
	var err error
	if v == nil {
		// No routing decision depends on chunk boundaries, so the write
		// reaches the PFS in one call.
		k, err = c.cfg.Direct.Write(path, off, p)
	} else {
		k, err = c.writeSpans(v, path, off, p, tr, 0)
	}
	tr.done(int64(k), note)
	return k, err
}

// writeSpans is the span writer: it routes p, the bytes at off, over v and
// sends every span to its I/O node. depth 0 is the op itself — the only
// place a forwarded write is counted, once, before the first attempt.
// Every path a span can take after that (shed or unreachable → PFS, fenced
// → here again at depth+1, or PFS) moves bytes without counting them.
func (c *Client) writeSpans(v *routeView, path string, off int64, p []byte, tr opTrace, depth int) (int, error) {
	var sbuf [maxParallelSpans]span
	spans := c.buildSpans(v, path, off, int64(len(p)), sbuf[:0])
	if depth == 0 {
		n := int64(len(spans))
		c.reg.Update(func() {
			c.stats.forwarded.Add(n)
			c.stats.bytesOut.Add(int64(len(p)))
		})
	}
	if len(spans) == 1 {
		return c.sendSpan(v, path, off, p, spans[0], tr, depth)
	}
	return c.fanOut(v, path, off, p, spans, tr, depth, false)
}

// maxEpochRemaps bounds how many successive stale-epoch rejections one
// span may chase through fresh mappings before degrading to the direct
// path (each hop means the arbiter fenced again while we were in flight).
const maxEpochRemaps = 3

// sendSpan issues the wire request for span s of p (the bytes at off) and
// applies the fallback rule to its outcome.
func (c *Client) sendSpan(v *routeView, path string, off int64, p []byte, s span, tr opTrace, depth int) (int, error) {
	payload := p[s.off-off:][:s.n]
	req := &rpc.Message{Op: rpc.OpWrite, Path: path, Offset: s.off, Data: payload, Trace: tr.id, Priority: c.wirePrio}
	if c.cfg.EpochFencing {
		req.Epoch = v.epoch
	}
	if c.cfg.Dedup {
		// Stamp once per wire request: the transport retry (inside
		// rpc.Client.Call), the busy retry (inside callION), and a hedge
		// (inside hedged) all resend this exact identity, so every
		// re-attempt carries the seq of the attempt it duplicates.
		req.ClientID = c.clientID
		req.Seq = c.seq.Add(1)
	}
	resp, err := c.hedged(v.targets[s.target], req)
	out := c.classify(err)
	if out == served {
		k := 0
		if err == nil {
			k = int(resp.Size)
			if resp.Replayed {
				c.stats.replayed.Inc()
			}
		}
		resp.Release()
		return k, wireError(err, path)
	}
	resp.Release()
	if out == fenced {
		// Not a failure — a remap signal: the arbiter recovered and revoked
		// every mapping this span could have been built from. Wait (bounded
		// by EpochWait) for a view above the rejected epoch and route these
		// bytes again over it.
		c.stats.epochRetries.Inc()
		if depth < maxEpochRemaps {
			if fresh := c.awaitEpochAbove(req.Epoch); fresh != nil {
				return c.writeSpans(fresh, path, s.off, payload, tr, depth+1)
			}
		}
	}
	// Shed, unreachable, or fenced with no fresher view in reach: the I/O
	// node never applied this request, so the bytes — counted already —
	// land exactly once through the PFS.
	return c.cfg.Direct.Write(path, s.off, payload)
}

// awaitEpochAbove waits up to EpochWait for the first install of a view
// with epoch > stale. nil means the wait ran out, the client closed, or
// the fresh view sends the app direct — each a reason to write direct.
func (c *Client) awaitEpochAbove(stale uint64) *routeView {
	v, ok := c.awaitView(c.cfg.EpochWait, func(v *routeView) bool { return v != nil && v.epoch > stale })
	if !ok || len(v.targets) == 0 {
		return nil
	}
	return v
}

// Read implements pfs.FileSystem. Span RPCs are issued concurrently, like
// writes. Reads past the end of the file return pfs.ErrShortRead with the
// bytes that were available, like the store. The returned count is the
// contiguous prefix read from off: a span that comes back short stops the
// count even when later spans returned data, so the count never covers a
// hole.
func (c *Client) Read(path string, off int64, p []byte) (int, error) {
	if err := c.errIfClosed(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	tr := c.trace("read", path)
	v, note, t0 := c.admit(off, int64(len(p)), 0)
	if !t0.IsZero() {
		defer c.qos.observeSince(t0)
	}
	var total int
	var err error
	if v == nil {
		total, err = c.directRead(path, off, p)
	} else {
		total, err = c.readSpans(v, path, off, p, tr)
	}
	tr.done(int64(total), note)
	if err == nil && total < len(p) {
		err = pfs.ErrShortRead
	}
	return total, err
}

// readSpans routes [off, off+len(p)) over v and reads every span from its
// I/O node into its window of p.
func (c *Client) readSpans(v *routeView, path string, off int64, p []byte, tr opTrace) (int, error) {
	var sbuf [maxParallelSpans]span
	spans := c.buildSpans(v, path, off, int64(len(p)), sbuf[:0])
	if len(spans) == 1 {
		return c.readSpan(v, path, off, p, spans[0], tr)
	}
	return c.fanOut(v, path, off, p, spans, tr, 0, true)
}

// readSpan reads span s from its I/O node into its window of p (the
// buffer for off), under the same fallback rule as writes. The window is
// the request's Dst: the transport decodes the reply's payload straight
// into it, and whatever an exchange that failed left there is overwritten
// by the retry, or by the PFS when the fallback rule takes the span.
func (c *Client) readSpan(v *routeView, path string, off int64, p []byte, s span, tr opTrace) (int, error) {
	dst := p[s.off-off:][:s.n]
	c.stats.forwarded.Inc()
	req := &rpc.Message{Op: rpc.OpRead, Path: path, Offset: s.off, Size: s.n, Dst: dst, Trace: tr.id, Priority: c.wirePrio}
	resp, err := c.hedged(v.targets[s.target], req)
	if c.classify(err).direct() {
		resp.Release()
		return c.directRead(path, s.off, dst)
	}
	k := 0
	if resp != nil {
		// The bytes are in the window already, unless they are a winning
		// hedge's (its private buffer) or more than the span asked for.
		if k = len(resp.Data); k > 0 && &resp.Data[0] != &dst[0] {
			k = copy(dst, resp.Data)
		}
		c.stats.bytesIn.Add(int64(k))
		resp.Release()
	}
	return k, shortOK(wireError(err, path))
}

// directRead reads from the PFS into dst and counts the bytes that came.
func (c *Client) directRead(path string, off int64, dst []byte) (int, error) {
	k, err := c.cfg.Direct.Read(path, off, dst)
	c.stats.bytesIn.Add(int64(k))
	return k, shortOK(err)
}

// shortOK drops the store's EOF sentinel from one extent's read: an extent
// that ends at EOF is an answer, and Read's total says whether the op as a
// whole came up short.
func shortOK(err error) error {
	if errors.Is(err, pfs.ErrShortRead) {
		return nil
	}
	return err
}
