// Package livestack assembles the complete live forwarding system — PFS
// store, I/O-node daemons over TCP, mapping bus, arbiter — into one
// harness, used by the examples, the gkfwd command, and the end-to-end
// integration tests. It is the "mini cluster in a box" counterpart of the
// paper's Grid'5000 deployment.
package livestack

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/agios"
	"repro/internal/arbiter"
	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/health"
	"repro/internal/ion"
	"repro/internal/journal"
	"repro/internal/latency"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Config parameterizes a stack.
type Config struct {
	// IONs is the number of I/O-node daemons (paper §5.3: 12).
	IONs int
	// Policy arbitrates; nil selects MCKP.
	Policy policy.Policy
	// Scheduler names the AGIOS scheduler for the daemons ("FIFO",
	// "SJF", "AIOLI", "TWINS"); empty selects AIOLI, GekkoFWD's
	// aggregating default in this reproduction.
	Scheduler string
	// PFS configures the backing store; zero value = functional store.
	PFS pfs.Config
	// Dispatchers is the number of dispatch slots per I/O node (concurrent
	// backend calls; see ion.Config.Dispatchers); ≤0 selects the daemon
	// default.
	Dispatchers int
	// Telemetry is the stack-wide metrics registry shared by every layer
	// (fwd clients, rpc, daemons, PFS, arbiter); nil creates one.
	Telemetry *telemetry.Registry
	// Tracer joins per-request hops across layers. Nil disables tracing
	// (metrics stay on); pass telemetry.NewTracer to record traces.
	Tracer *telemetry.Tracer

	// ChunkSize is the forwarding clients' request-splitting unit; ≤0
	// selects fwd.DefaultChunkSize.
	ChunkSize int64
	// PoolSize is each client's RPC connection pool per I/O node; ≤0
	// selects rpc.DefaultPoolSize. One request is in flight per
	// connection, so this caps a client's concurrency against one node —
	// size it to the application's writer parallelism when queue-depth
	// signals (overload detection, elastic scaling) must see the demand.
	PoolSize int
	// CoalesceLimit caps how many contiguous same-target bytes a client
	// merges into one wire request; ≤0 selects fwd.DefaultCoalesceLimit
	// (values above the frame ceiling are clamped by the client).
	CoalesceLimit int64
	// RPC is the failure-tolerance configuration (per-call deadlines,
	// retries, circuit breaker) applied to every forwarding client this
	// stack creates. The zero value keeps the legacy block-forever
	// transport behaviour.
	RPC rpc.Options

	// HealthInterval, when >0, runs a heartbeat prober over the daemons
	// and feeds its events into the arbiter (Transition), closing the
	// detect→re-arbitrate loop.
	HealthInterval time.Duration
	// HealthTimeout is the per-ping deadline; ≤0 lets the prober derive
	// it from the interval.
	HealthTimeout time.Duration
	// HealthFailThreshold / HealthRiseThreshold debounce transitions;
	// ≤0 selects the prober defaults.
	HealthFailThreshold int
	HealthRiseThreshold int

	// SlowFactor enables fail-slow (gray failure) detection on the
	// health prober: a node whose probe-RTT median exceeds the median of
	// its peers' medians × SlowFactor for SlowWindow consecutive sweeps
	// is marked degraded (a Slow event), and the arbiter quarantines it —
	// excluded from new allocations while it stays in the pool — until
	// SlowRecovery clean sweeps restore it (a Restore event). Requires
	// HealthInterval > 0. ≤0 keeps detection off, behavior byte for byte.
	SlowFactor float64
	// SlowWindow / SlowRecovery debounce degraded transitions; ≤0 selects
	// the prober defaults (3 slow sweeps in, 5 clean sweeps out).
	SlowWindow   int
	SlowRecovery int
	// QuarantineFloor is the live-capacity floor the quarantine may not
	// dig below (see arbiter.WithQuarantine); ≤0 selects 1. Only
	// meaningful with SlowFactor > 0.
	QuarantineFloor int
	// Hedge configures tail-tolerant hedged requests on every forwarding
	// client this stack creates (see fwd.HedgeConfig). Requires
	// DedupWindow > 0: the hedged write is a same-stamp duplicate that
	// only the daemon's dedup window makes exactly-once. When SlowFactor
	// is also set, clients and the prober share one latency sketch, so
	// probe RTTs and data-path RTTs pool into the same per-node
	// distribution the hedge deadline is drawn from.
	Hedge fwd.HedgeConfig

	// QueueCap bounds each daemon's AGIOS queue (requests); >0 enables
	// bounded admission — past the cap, requests are answered with a busy
	// response instead of queued. 0 keeps the legacy unbounded queue.
	QueueCap int
	// QueueLowWater is the drain level at which a saturated queue resumes
	// admitting; ≤0 selects half of QueueCap.
	QueueLowWater int
	// MaxInflight bounds concurrently-handled requests per daemon (shed
	// above it); 0 = unlimited.
	MaxInflight int
	// MaxConns bounds accepted client connections per daemon; 0 =
	// unlimited.
	MaxConns int
	// RetryAfterHint is carried on busy responses; ≤0 selects the daemon
	// default.
	RetryAfterHint time.Duration
	// Throttle configures adaptive per-ION client throttling (AIMD
	// window) on every forwarding client this stack creates. The zero
	// value disables throttling.
	Throttle fwd.ThrottleConfig

	// WireChecksum turns on CRC32C frame trailers end to end: daemons
	// checksum their responses, forwarding clients and the health prober
	// checksum their requests, and every reader verifies trailers it
	// sees. Off by default (zero-value wire compatibility).
	WireChecksum bool
	// DedupWindow enables exactly-once writes: forwarding clients stamp
	// each write with a (clientID, seq) identity and every daemon keeps a
	// window of that many committed outcomes per client, replaying them
	// on transport retries instead of re-applying. 0 disables (the
	// pre-integrity at-least-once behavior).
	DedupWindow int

	// OverloadQueueDepth / OverloadShedDelta / OverloadThreshold /
	// OverloadRecovery configure the prober's overload detection (see
	// health.Config); the Hot/Cool events it detects feed the arbiter
	// (Transition) so load is steered away from
	// saturated I/O nodes without removing them from the pool. Overload
	// detection requires HealthInterval > 0 and at least one of the two
	// signal thresholds.
	OverloadQueueDepth int
	OverloadShedDelta  int
	OverloadThreshold  int
	OverloadRecovery   int

	// JournalDir, when non-empty, makes the control plane crash-safe: the
	// arbiter appends every transition to a write-ahead journal in this
	// directory, and epoch fencing turns on end to end — forwarding
	// clients stamp writes with the mapping epoch, daemons reject writes
	// from revoked epochs, and CrashControlPlane/RecoverControlPlane
	// exercise the warm-restart path. Empty (the default) keeps the
	// pre-journal stack, behavior and wire format byte for byte.
	JournalDir string
	// JournalSnapshotEvery is the append count between compacting journal
	// snapshots; ≤0 selects the journal default (256). Only meaningful
	// with JournalDir.
	JournalSnapshotEvery int

	// QoS, when non-nil, is the stack's tenant policy (internal/qos):
	// clients created by NewClient get their app's class (token-bucket
	// admission + wire priority), the arbiter weights contended
	// allocations by class weight, and — unless Scheduler is set
	// explicitly — daemons run the WFQ scheduler so priorities take
	// effect. nil keeps the pre-QoS stack byte for byte.
	QoS *qos.Registry

	// Elastic, when non-nil, runs the pool autoscaler (internal/elastic):
	// the static pool becomes the floor state of a pool that breathes
	// with demand — SpawnION provisions new daemons, graceful drains
	// decommission idle ones. Requires HealthInterval > 0 (the scaler
	// feeds on the prober's load samples). The scaler's Quiesced and
	// Telemetry seams are filled in by the stack when unset. nil keeps
	// today's static pool byte for byte.
	Elastic *elastic.Config
	// WrapProvisioner, when non-nil, interposes on the scaler's
	// provisioner — the hook chaos tests use to inject provisioning
	// failures. Only meaningful with Elastic set.
	WrapProvisioner func(elastic.Provisioner) elastic.Provisioner

	// WrapListener, when non-nil, interposes on each daemon's listener
	// before it starts serving — the hook chaos tests use to inject
	// network faults (faultnet.WrapListener) on a chosen I/O node.
	WrapListener func(ionIndex int, ln net.Listener) net.Listener
	// WrapBackend, when non-nil, interposes on each daemon's storage
	// backend — the hook chaos tests use to slow one I/O node down
	// (faultfs) and force it into overload.
	WrapBackend func(ionIndex int, b ion.Backend) ion.Backend
	// WrapDirect, when non-nil, interposes on the file system clients use
	// for direct-to-PFS forwarding (no allocation, or failover). Without
	// it the direct path hits the in-memory store at line rate, which no
	// real PFS offers — chaos tests wrap it with the same injected
	// latency as the I/O-node backends.
	WrapDirect func(fs pfs.FileSystem) pfs.FileSystem
}

// Stack is a running live system.
type Stack struct {
	Store   *pfs.Store
	Bus     *mapping.Bus
	Arbiter *arbiter.Arbiter
	Daemons []*ion.Daemon
	Addrs   []string

	// Health is the heartbeat prober (nil unless Config.HealthInterval
	// was set). Its events drive Arbiter.Transition.
	Health *health.Prober

	// Scaler is the pool autoscaler (nil unless Config.Elastic was set).
	Scaler *elastic.Scaler

	// Journal is the control-plane write-ahead log (nil unless
	// Config.JournalDir was set). CrashControlPlane closes it;
	// RecoverControlPlane reopens and replays it.
	Journal *journal.Journal

	// Telemetry and Tracer are the stack-wide observability handles every
	// layer reports into; serve them with telemetry.Handler.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer

	cfg       Config
	schedName string

	// latSketch is the per-ION latency distribution shared by the health
	// prober's fail-slow scorer and the clients' hedge deadlines (nil
	// unless SlowFactor or Hedge opted in).
	latSketch *latency.Sketch

	// mu guards the mutable pool state below plus the Daemons/Addrs
	// slices, which the scaler's spawn path appends to concurrently with
	// test readers. Static stacks never mutate them after Start.
	mu             sync.Mutex
	clients        []*fwd.Client
	cancels        []func()
	nextION        int             // daemon index source for spawned IONs
	decommissioned map[string]bool // addrs of daemons gone for good
	lastAct        map[string]ionActivity
	fenceCancel    func() // stops the fence fan-out subscriber (journaling only)
}

// ionActivity is one quiescence sample of a daemon (see ionQuiesced).
type ionActivity struct {
	depth int
	ops   int64
}

// Start builds and starts the stack.
func Start(cfg Config) (*Stack, error) {
	if cfg.IONs <= 0 {
		return nil, fmt.Errorf("livestack: need at least one I/O node, got %d", cfg.IONs)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.MCKP{}
	}
	schedName := cfg.Scheduler
	if schedName == "" {
		if cfg.QoS != nil && !cfg.QoS.Empty() {
			schedName = "WFQ" // priorities are inert under a FIFO default
		} else {
			schedName = "AIOLI"
		}
	}

	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	tracer := cfg.Tracer // nil keeps tracing off

	st := &Stack{
		Store:          pfs.NewStore(cfg.PFS).Instrument(reg),
		Bus:            mapping.NewBus(),
		Telemetry:      reg,
		Tracer:         tracer,
		cfg:            cfg,
		schedName:      schedName,
		nextION:        cfg.IONs,
		decommissioned: map[string]bool{},
		lastAct:        map[string]ionActivity{},
	}
	if cfg.Elastic != nil && cfg.HealthInterval <= 0 {
		return nil, errors.New("livestack: Elastic requires HealthInterval > 0 (the scaler feeds on prober load samples)")
	}
	if cfg.SlowFactor > 0 && cfg.HealthInterval <= 0 {
		return nil, errors.New("livestack: SlowFactor requires HealthInterval > 0 (the fail-slow scorer feeds on probe RTTs)")
	}
	if cfg.QuarantineFloor > 0 && cfg.SlowFactor <= 0 {
		return nil, errors.New("livestack: QuarantineFloor requires SlowFactor > 0 (nothing quarantines without detection)")
	}
	if cfg.Hedge.Enabled && cfg.DedupWindow <= 0 {
		return nil, errors.New("livestack: Hedge requires DedupWindow > 0 (dedup is what makes a duplicated write exactly-once)")
	}
	if cfg.SlowFactor > 0 || cfg.Hedge.Enabled {
		st.latSketch = latency.NewSketch(0)
	}
	for i := 0; i < cfg.IONs; i++ {
		d, addr, err := st.newDaemon(i)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.Daemons = append(st.Daemons, d)
		st.Addrs = append(st.Addrs, addr)
	}
	arb, err := arbiter.New(pol, st.Addrs, st.Bus)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.Arbiter = arb.Instrument(reg)
	if cfg.QoS != nil && !cfg.QoS.Empty() {
		st.Arbiter.WithWeights(cfg.QoS.Weight)
	}
	if cfg.SlowFactor > 0 {
		st.Arbiter.WithQuarantine(cfg.QuarantineFloor)
	}

	if cfg.JournalDir != "" {
		jn, err := journal.Open(cfg.JournalDir, journal.Options{
			SnapshotEvery: cfg.JournalSnapshotEvery,
			Telemetry:     reg,
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		st.Journal = jn
		st.Arbiter.WithJournal(jn)
		st.startFenceFanout()
	}

	if cfg.HealthInterval > 0 {
		if err := st.startHealth(st.Arbiter, st.Addrs); err != nil {
			st.Close()
			return nil, err
		}
	}
	if cfg.Elastic != nil {
		if err := st.startScaler(st.Arbiter, st.Addrs); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// startHealth builds and starts the heartbeat prober over addrs, feeding
// its events into arb. Used at Start and again by RecoverControlPlane
// (the old prober died with the control plane).
func (s *Stack) startHealth(arb *arbiter.Arbiter, addrs []string) error {
	prober, err := health.New(health.Config{
		Addrs:              addrs,
		Interval:           s.cfg.HealthInterval,
		Timeout:            s.cfg.HealthTimeout,
		FailThreshold:      s.cfg.HealthFailThreshold,
		RiseThreshold:      s.cfg.HealthRiseThreshold,
		OverloadQueueDepth: s.cfg.OverloadQueueDepth,
		OverloadShedDelta:  s.cfg.OverloadShedDelta,
		OverloadThreshold:  s.cfg.OverloadThreshold,
		OverloadRecovery:   s.cfg.OverloadRecovery,
		SlowFactor:         s.cfg.SlowFactor,
		SlowWindow:         s.cfg.SlowWindow,
		SlowRecovery:       s.cfg.SlowRecovery,
		Latency:            s.latSketch,
		WireChecksum:       s.cfg.WireChecksum,
		Telemetry:          s.Telemetry,
		OnEvent: func(e health.Event) {
			// Errors are advisory: even when a re-solve fails the arbiter
			// has recorded the event and published a mapping that excludes
			// down nodes; hot and slow nodes stay valid to route to (the
			// floor may hold a quarantine back — hedging carries the tail).
			arb.Transition(e.Addr, e.Kind)
		},
	})
	if err != nil {
		return err
	}
	// A recovered arbiter already holds journaled conditions, and the
	// prober only reports edges: start each marked member in the state the
	// arbiter has it in, so the ordinary debounce fires the Rise/Cool/
	// Restore that clears the mark once the node earns it.
	for _, addr := range addrs {
		if st, _ := arb.StateOf(addr); st&^nodestate.Draining != 0 { // Draining is not the prober's to see
			prober.Remove(addr)
			if err := prober.Add(addr, st); err != nil {
				prober.Stop()
				return err
			}
		}
	}
	s.Health = prober
	prober.Start()
	return nil
}

// startScaler builds and starts the pool autoscaler over arb and addrs.
// Used at Start and again by RecoverControlPlane.
func (s *Stack) startScaler(arb *arbiter.Arbiter, addrs []string) error {
	ecfg := *s.cfg.Elastic
	if ecfg.Telemetry == nil {
		ecfg.Telemetry = s.Telemetry
	}
	if ecfg.Quiesced == nil {
		ecfg.Quiesced = s.ionQuiesced
	}
	var prov elastic.Provisioner = (*stackProvisioner)(s)
	if s.cfg.WrapProvisioner != nil {
		prov = s.cfg.WrapProvisioner(prov)
	}
	sc, err := elastic.New(ecfg, arb, prov, s.Health, addrs)
	if err != nil {
		return err
	}
	s.Scaler = sc
	sc.Start()
	return nil
}

// startFenceFanout subscribes a background goroutine to the mapping bus
// that pushes the revocation floor of every published map to every
// daemon. The critical fence (recovery) is delivered synchronously via
// arbiter.RecoverConfig.PreFence before the recovery map goes out; this
// subscriber is the steady-state redundancy that keeps late joiners and
// warm-restarted daemons converging on the floor.
func (s *Stack) startFenceFanout() {
	ch, cancelSub := s.Bus.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range ch {
			if m.Fence == 0 {
				continue
			}
			s.mu.Lock()
			daemons := append([]*ion.Daemon(nil), s.Daemons...)
			s.mu.Unlock()
			for _, d := range daemons {
				d.SetFence(m.Fence)
			}
		}
	}()
	s.fenceCancel = func() {
		cancelSub()
		<-done
	}
}

// CrashControlPlane simulates a SIGKILL of the control plane while the
// data plane keeps running: the scaler, prober, and fence fan-out stop,
// the journal is closed mid-stream (whatever was fsynced is all that
// survives), and the arbiter reference is dropped. Daemons keep serving
// and clients keep writing on their last mapping — exactly the blackout
// the paper's single-node arbiter exposes. Requires JournalDir;
// coordinate with goroutines that use Stack.Arbiter directly.
func (s *Stack) CrashControlPlane() error {
	if s.cfg.JournalDir == "" {
		return errors.New("livestack: CrashControlPlane requires JournalDir (nothing would survive)")
	}
	if s.Scaler != nil {
		s.Scaler.Stop()
		s.Scaler = nil
	}
	if s.Health != nil {
		s.Health.Stop()
		s.Health = nil
	}
	s.mu.Lock()
	cancel := s.fenceCancel
	s.fenceCancel = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if s.Journal != nil {
		s.Journal.Close()
		s.Journal = nil
	}
	s.Arbiter = nil
	return nil
}

// RecoverControlPlane warm-restarts a crashed control plane from the
// journal: replay, re-probe every journaled pool member, fence every
// pre-crash epoch on the live daemons before the recovery publish, roll
// back half-provisioned I/O nodes the journal never admitted, and
// restart the prober, scaler, and fence fan-out. The returned error is
// advisory when an arbiter came up (degraded recovery, e.g. a failed
// re-solve published the pruned pre-crash mapping) and fatal when nil
// Stack.Arbiter proves no recovery happened.
func (s *Stack) RecoverControlPlane() error {
	if s.cfg.JournalDir == "" {
		return errors.New("livestack: RecoverControlPlane requires JournalDir")
	}
	jn, err := journal.Open(s.cfg.JournalDir, journal.Options{
		SnapshotEvery: s.cfg.JournalSnapshotEvery,
		Telemetry:     s.Telemetry,
	})
	if err != nil {
		return err
	}
	pol := s.cfg.Policy
	if pol == nil {
		pol = policy.MCKP{}
	}
	var weights func(string) float64
	if s.cfg.QoS != nil && !s.cfg.QoS.Empty() {
		weights = s.cfg.QoS.Weight
	}
	quarFloor := 0
	if s.cfg.SlowFactor > 0 {
		// Re-arm the quarantine on the recovered arbiter: journaled
		// degraded marks replay as quarantines again, under the same floor.
		if quarFloor = s.cfg.QuarantineFloor; quarFloor < 1 {
			quarFloor = 1
		}
	}
	arb, rerr := arbiter.Recover(arbiter.RecoverConfig{
		Journal: jn,
		Policy:  pol,
		Bus:     s.Bus,
		Probe: func(addr string) bool {
			return health.Check(addr, s.cfg.HealthTimeout)
		},
		PreFence: func(fence uint64) {
			s.mu.Lock()
			daemons := append([]*ion.Daemon(nil), s.Daemons...)
			s.mu.Unlock()
			for _, d := range daemons {
				d.SetFence(fence)
			}
		},
		Weights:         weights,
		QuarantineFloor: quarFloor,
		Telemetry:       s.Telemetry,
	})
	if arb == nil {
		jn.Close()
		return rerr
	}
	s.Journal = jn
	s.Arbiter = arb

	// Roll back half-provisioned nodes: a daemon the scaler spawned whose
	// AddION never reached the journal is running but unknown to the
	// recovered pool — nothing will ever route to it or drain it, so
	// decommission it and let the scaler re-provision from live demand.
	inPool := make(map[string]bool)
	for _, a := range arb.Pool() {
		inPool[a] = true
	}
	s.mu.Lock()
	var orphans []string
	for _, a := range s.Addrs {
		if !inPool[a] && !s.decommissioned[a] {
			orphans = append(orphans, a)
		}
	}
	s.mu.Unlock()
	for _, a := range orphans {
		s.DecommissionION(a)
	}

	s.startFenceFanout()
	if s.cfg.HealthInterval > 0 {
		if err := s.startHealth(arb, arb.Pool()); err != nil {
			return errors.Join(rerr, err)
		}
	}
	if s.cfg.Elastic != nil {
		if err := s.startScaler(arb, arb.Pool()); err != nil {
			return errors.Join(rerr, err)
		}
	}
	return rerr
}

// newDaemon builds and starts one I/O-node daemon at pool index i,
// threading the backend and listener wrap hooks.
func (s *Stack) newDaemon(i int) (*ion.Daemon, string, error) {
	sched, err := agios.NewByName(s.schedName)
	if err != nil {
		return nil, "", err
	}
	var backend ion.Backend = s.Store
	if s.cfg.WrapBackend != nil {
		backend = s.cfg.WrapBackend(i, backend)
	}
	d := ion.New(ion.Config{
		ID:             fmt.Sprintf("ion%02d", i),
		Scheduler:      sched,
		Dispatchers:    s.cfg.Dispatchers,
		Telemetry:      s.Telemetry,
		Tracer:         s.Tracer,
		QueueCap:       s.cfg.QueueCap,
		QueueLowWater:  s.cfg.QueueLowWater,
		MaxInflight:    s.cfg.MaxInflight,
		MaxConns:       s.cfg.MaxConns,
		RetryAfterHint: s.cfg.RetryAfterHint,
		WireChecksum:   s.cfg.WireChecksum,
		DedupWindow:    s.cfg.DedupWindow,
		EpochFencing:   s.cfg.JournalDir != "",
	}, backend)
	addr, err := startDaemon(d, i, s.cfg.WrapListener)
	if err != nil {
		return nil, "", err
	}
	// A node spawned after a recovery must start at the current revocation
	// floor, not at zero — otherwise a stale pre-crash client could land a
	// revoked-epoch write on the one fresh node.
	if f := s.Bus.Current().Fence; f > 0 {
		d.SetFence(f)
	}
	return d, addr, nil
}

// SpawnION provisions one new I/O-node daemon on an ephemeral port and
// registers it in the stack's daemon table (NOT the arbiter pool — the
// scaler does that only after the node's first health rise). Returns the
// new daemon's address.
func (s *Stack) SpawnION() (string, error) {
	s.mu.Lock()
	i := s.nextION
	s.nextION++
	s.mu.Unlock()
	d, addr, err := s.newDaemon(i)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.Daemons = append(s.Daemons, d)
	s.Addrs = append(s.Addrs, addr)
	s.mu.Unlock()
	return addr, nil
}

// DecommissionION permanently retires the daemon at addr: the daemon is
// closed and every stack client releases its pooled connection to it (a
// decommissioned address never comes back, unlike a killed-and-restarted
// one). Idempotent; unknown addresses error.
func (s *Stack) DecommissionION(addr string) error {
	s.mu.Lock()
	idx := -1
	for i, a := range s.Addrs {
		if a == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.mu.Unlock()
		return fmt.Errorf("livestack: no I/O node at %s", addr)
	}
	if s.decommissioned[addr] {
		s.mu.Unlock()
		return nil
	}
	s.decommissioned[addr] = true
	d := s.Daemons[idx]
	clients := append([]*fwd.Client(nil), s.clients...)
	s.mu.Unlock()

	err := d.Close()
	for _, c := range clients {
		c.ReleaseConn(addr)
	}
	return err
}

// stackProvisioner adapts the stack's spawn/decommission pair to the
// elastic.Provisioner seam.
type stackProvisioner Stack

func (p *stackProvisioner) Provision() (string, error)     { return (*Stack)(p).SpawnION() }
func (p *stackProvisioner) Decommission(addr string) error { return (*Stack)(p).DecommissionION(addr) }

// ionQuiesced reports whether the daemon at addr is quiet: empty queue
// and no op progress since the previous sample. One sample alone is
// never quiet — motion shows only between two looks — so the scaler's
// QuiesceSweeps counts from the second call on.
func (s *Stack) ionQuiesced(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d *ion.Daemon
	for i, a := range s.Addrs {
		if a == addr {
			d = s.Daemons[i]
			break
		}
	}
	if d == nil || s.decommissioned[addr] {
		return true // gone is as quiet as it gets
	}
	depth, ops := d.Activity()
	last, seen := s.lastAct[addr]
	s.lastAct[addr] = ionActivity{depth: depth, ops: ops}
	return seen && depth == 0 && last.depth == 0 && ops == last.ops
}

// IONAddrs returns a snapshot of the daemon addresses, safe to call
// while the scaler is growing the pool.
func (s *Stack) IONAddrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.Addrs...)
}

// DaemonAt returns the daemon serving addr (nil when unknown), safe to
// call while the scaler is growing the pool.
func (s *Stack) DaemonAt(addr string) *ion.Daemon {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.Addrs {
		if a == addr {
			return s.Daemons[i]
		}
	}
	return nil
}

// startDaemon starts d on an ephemeral port, threading the listener
// through the fault-injection hook when one is configured.
func startDaemon(d *ion.Daemon, idx int, wrap func(int, net.Listener) net.Listener) (string, error) {
	if wrap == nil {
		return d.Start("")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	return d.StartOn(wrap(idx, ln))
}

// RestartION warm-restarts the i-th daemon on its original address,
// re-applying the stack's fault-injection listener wrapper when one is
// configured. The daemon must have been Closed first (a "kill"); once it
// serves again, the health prober observes it and its Rise re-admits it to
// arbitration — the full crash→rejoin loop. The address is unchanged, so
// existing mappings, client pools, and breaker state converge on their
// own.
func (s *Stack) RestartION(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.Daemons) {
		s.mu.Unlock()
		return fmt.Errorf("livestack: no I/O node %d", i)
	}
	d := s.Daemons[i]
	addr := s.Addrs[i]
	if s.decommissioned[addr] {
		s.mu.Unlock()
		return fmt.Errorf("livestack: %s was decommissioned, spawn a new I/O node instead", addr)
	}
	s.mu.Unlock()
	if s.Arbiter != nil {
		if st, _ := s.Arbiter.StateOf(addr); st.Has(nodestate.Draining) {
			return fmt.Errorf("livestack: %s is draining, restart refused (let the drain finish or abort it first)", addr)
		}
	}
	if s.cfg.WrapListener == nil {
		_, err := d.Restart()
		return err
	}
	// Rebind the original address ourselves so the wrapper can interpose,
	// with the same lingering-port retry Restart applies.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("livestack: restart rebind %s: %w", addr, err)
	}
	_, err = d.RestartOn(s.cfg.WrapListener(i, ln))
	return err
}

// NewClient creates a forwarding client for an application, subscribed to
// the stack's mapping bus. The client starts in direct mode until the
// arbiter assigns it I/O nodes (via JobStarted).
func (s *Stack) NewClient(appID string) (*fwd.Client, error) {
	rpcOpts := s.cfg.RPC
	rpcOpts.WireChecksum = rpcOpts.WireChecksum || s.cfg.WireChecksum
	direct := pfs.FileSystem(s.Store)
	if s.cfg.WrapDirect != nil {
		direct = s.cfg.WrapDirect(direct)
	}
	c, err := fwd.NewClient(fwd.Config{
		AppID:         appID,
		Direct:        direct,
		ChunkSize:     s.cfg.ChunkSize,
		PoolSize:      s.cfg.PoolSize,
		CoalesceLimit: s.cfg.CoalesceLimit,
		RPC:           rpcOpts,
		Throttle:      s.cfg.Throttle,
		Hedge:         s.cfg.Hedge,
		Latency:       s.latSketch,
		Dedup:         s.cfg.DedupWindow > 0,
		EpochFencing:  s.cfg.JournalDir != "",
		QoS:           s.cfg.QoS.ClassFor(appID),
		Telemetry:     s.Telemetry,
		Tracer:        s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	ch, cancelSub := s.Bus.Subscribe()
	cancelWatch := c.Watch(ch)
	s.mu.Lock()
	s.clients = append(s.clients, c)
	s.cancels = append(s.cancels, func() {
		cancelWatch()
		cancelSub()
	})
	s.mu.Unlock()
	return c, nil
}

// WaitForAllocation blocks until the client observes the given mapping
// version or the timeout elapses (mapping propagation is asynchronous,
// like GekkoFWD's periodic check). Polling backs off geometrically but
// never sleeps past the deadline, so short timeouts stay sharp and long
// ones don't spin; on timeout the error carries the mapping the client
// last observed.
func WaitForAllocation(c *fwd.Client, ions int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	step := time.Millisecond
	for {
		have := c.IONs()
		if len(have) == ions {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("livestack: client never observed %d I/O nodes within %v (last mapping: %d nodes %v)",
				ions, timeout, len(have), have)
		}
		if step > remaining {
			step = remaining
		}
		time.Sleep(step)
		if step < 16*time.Millisecond {
			step *= 2
		}
	}
}

// waitForSomeAllocation blocks until the client observes any nonzero
// allocation, or the timeout elapses. Same deadline-aware backoff and
// last-observation diagnostics as WaitForAllocation.
func waitForSomeAllocation(c *fwd.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	step := time.Millisecond
	for {
		if len(c.IONs()) > 0 {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("livestack: client never observed an allocation within %v (last mapping: empty)", timeout)
		}
		if step > remaining {
			step = remaining
		}
		time.Sleep(step)
		if step < 16*time.Millisecond {
			step *= 2
		}
	}
}

// Close stops the scaler, health prober, watchers, clients, and daemons.
// The scaler goes first (no spawns/drains during teardown), then the
// prober so daemon shutdown is not misread as an outage.
func (s *Stack) Close() {
	if s.Scaler != nil {
		s.Scaler.Stop()
	}
	if s.Health != nil {
		s.Health.Stop()
	}
	s.mu.Lock()
	if s.fenceCancel != nil {
		cancel := s.fenceCancel
		s.fenceCancel = nil
		s.mu.Unlock()
		cancel()
		s.mu.Lock()
	}
	cancels := append([]func(){}, s.cancels...)
	clients := append([]*fwd.Client(nil), s.clients...)
	daemons := append([]*ion.Daemon(nil), s.Daemons...)
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	for _, c := range clients {
		c.Close()
	}
	for _, d := range daemons {
		d.Close()
	}
	if s.Journal != nil {
		s.Journal.Close()
		s.Journal = nil
	}
}
