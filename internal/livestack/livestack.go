// Package livestack assembles the complete live forwarding system — PFS
// store, I/O-node daemons over TCP, mapping bus, arbiter — into one
// harness, used by the examples, the gkfwd command, and the end-to-end
// integration tests. It is the "mini cluster in a box" counterpart of the
// paper's Grid'5000 deployment.
//
// A stack is described by one Config (config.go). Start runs
// Config.Validate — the single owner of the rules between its fields —
// before building anything, so every entry point (a gkfwd command line, a
// test literal, the bench/ module) is held to the same rules.
//
// Every daemon the stack starts — at Start or from SpawnION — enters
// through addNode and is kept as one node record under its address:
// DecommissionION, RestartION, DaemonAt and the scaler's quiescence check
// all start from that record. Stack.Daemons and Stack.Addrs are the same
// daemons by position, append-only, for callers that index them.
package livestack

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
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
	"repro/internal/telemetry"
)

// Stack is a running live system.
type Stack struct {
	Store   *pfs.Store
	Bus     *mapping.Bus
	Arbiter *arbiter.Arbiter
	Daemons []*ion.Daemon
	Addrs   []string

	// Health is the heartbeat prober (nil unless Config.HealthInterval
	// was set). It probes the arbiter's pool, judging against the
	// conditions the arbiter records, and its events drive
	// Arbiter.Transition.
	Health *health.Prober

	// Scaler is the pool autoscaler (nil unless Config.Elastic was set).
	// It steps once per probe sweep.
	Scaler *elastic.Scaler

	// Journal is the control-plane write-ahead log (nil unless
	// Config.JournalDir was set). CrashControlPlane closes it;
	// RecoverControlPlane reopens and replays it.
	Journal *journal.Journal

	// Telemetry and Tracer are the stack-wide observability handles every
	// layer reports into; serve them with telemetry.Handler.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer

	cfg Config

	// latSketch is the per-ION latency distribution shared by the health
	// prober's fail-slow scorer and the clients' hedge deadlines (nil
	// unless SlowFactor or Hedge opted in).
	latSketch *latency.Sketch

	// mu guards the mutable pool state below plus the Daemons/Addrs
	// slices, which the scaler's spawn path appends to concurrently with
	// test readers. Static stacks never mutate them after Start. Daemons
	// and Addrs are position-aligned and append-only, and addNode is their
	// only writer; everything that starts from an address goes through
	// nodes instead. NewClient registers clients under it too.
	mu      sync.Mutex
	nextION int              // daemon index source (addNode)
	nodes   map[string]*node // address → the daemon the stack started there

	// clients are the open clients NewClient made, in creation order. The
	// slice is replaced, never appended to in place (under mu), so the
	// bus's follower walks it without a lock; the follower drops the
	// clients it finds closed.
	clients atomic.Pointer[[]*fwd.Client]

	// stopDelivery unregisters the stack's bus follower (startDelivery).
	stopDelivery func()
	// stopLoop ends the stack's one control-plane loop (startControlPlane);
	// nil while none runs.
	stopLoop func()
}

// node is everything the stack keeps per I/O-node daemon it started.
type node struct {
	idx  int // daemon index ("ionNN", and what the Wrap* hooks are given)
	d    *ion.Daemon
	addr string
	gone bool         // decommissioned: closed for good, never restarted
	last *ionActivity // previous quiescence sample (see ionQuiesced)
}

// ionActivity is one quiescence sample of a daemon.
type ionActivity struct {
	depth int
	ops   int64
}

// Start validates cfg, then builds and starts the stack.
func Start(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Defaults are resolved once, here: everything below — and
	// RecoverControlPlane, later — reads them from s.cfg.
	if cfg.Policy == nil {
		cfg.Policy = policy.MCKP{}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.SlowFactor > 0 && cfg.QuarantineFloor == 0 {
		cfg.QuarantineFloor = 1 // detection on ⇔ quarantine armed
	}
	if cfg.HealthInterval > 0 && cfg.HealthTimeout == 0 {
		// Half a sweep, floored at 100ms: pings are answered inline by the
		// daemon, but on a saturated host scheduling delay alone can cost
		// tens of milliseconds, and a busy-but-alive node must not be
		// mistaken for a dead one. The prober and the recovery re-probe
		// share it.
		cfg.HealthTimeout = max(cfg.HealthInterval/2, 100*time.Millisecond)
	}

	st := &Stack{
		Store:     pfs.NewStore(cfg.PFS).Instrument(cfg.Telemetry),
		Bus:       mapping.NewBus(),
		Telemetry: cfg.Telemetry,
		Tracer:    cfg.Tracer, // nil keeps tracing off
		cfg:       cfg,
		nodes:     map[string]*node{},
	}
	st.clients.Store(new([]*fwd.Client))
	if cfg.SlowFactor > 0 || cfg.Hedge.Enabled {
		st.latSketch = latency.NewSketch(0)
	}
	for i := 0; i < cfg.IONs; i++ {
		if _, err := st.addNode(); err != nil {
			st.Close()
			return nil, err
		}
	}
	arb, err := arbiter.New(cfg.Policy, st.Addrs, st.Bus)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.Arbiter = arb.Instrument(cfg.Telemetry).WithWeights(st.qosWeights())
	if cfg.QuarantineFloor > 0 {
		st.Arbiter.WithQuarantine(cfg.QuarantineFloor)
	}
	if cfg.JournalDir != "" {
		if st.Journal, err = st.openJournal(); err != nil {
			st.Close()
			return nil, err
		}
		st.Arbiter.WithJournal(st.Journal)
	}
	if err := st.startControlPlane(); err != nil {
		st.Close()
		return nil, err
	}
	st.startDelivery()
	return st, nil
}

// Scheduler reports the AGIOS scheduler the daemons run: Config.Scheduler,
// or the default that stands in for an empty one.
func (s *Stack) Scheduler() string { return s.cfg.schedulerName() }

// qosWeights is the arbiter's weight source: the tenant policy's class
// weights, nil without one.
func (s *Stack) qosWeights() func(id string) float64 {
	if s.cfg.QoS.Empty() {
		return nil
	}
	return s.cfg.QoS.Weight
}

// openJournal opens (replaying what is there) the control-plane journal.
func (s *Stack) openJournal() (*journal.Journal, error) {
	return journal.Open(s.cfg.JournalDir, journal.Options{Telemetry: s.Telemetry})
}

// startControlPlane builds what runs around the arbiter — the prober
// feeding it, the scaler feeding on the prober, both reading the
// arbiter's pool — and starts the stack's one control-plane loop, which
// steps them every HealthInterval. Used at Start and again by
// RecoverControlPlane: the old ones died with the control plane.
func (s *Stack) startControlPlane() error {
	if s.cfg.HealthInterval == 0 {
		return nil // Validate: no scaler runs without probes
	}
	if err := s.buildProber(); err != nil {
		return err
	}
	if s.cfg.Elastic != nil {
		if err := s.buildScaler(); err != nil {
			s.Health.Stop()
			s.Health = nil
			return err
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go s.runControlPlane(stop, done)
	s.stopLoop = func() {
		close(stop)
		<-done
	}
	return nil
}

// runControlPlane is the control-plane loop: one step every HealthInterval
// until stop closes.
func (s *Stack) runControlPlane(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.step()
		}
	}
}

// step is one round of the control plane: a probe sweep, its events
// applied to the arbiter in the order the sweep returns them, then one
// scaler tick over the state they left — so the scaler's windows count
// sweeps, and each tick reads the sample its own sweep just took.
func (s *Stack) step() {
	for _, e := range s.Health.ProbeOnce() {
		// Errors are advisory: even when a re-solve fails the arbiter has
		// recorded the event and published a mapping that excludes down
		// nodes; hot and slow nodes stay valid to route to (the floor may
		// hold a quarantine back — hedging carries the tail).
		s.Arbiter.Transition(e.Addr, e.Kind)
	}
	if s.Scaler != nil {
		s.Scaler.Tick()
	}
}

// buildProber builds the heartbeat prober over the arbiter's pool.
func (s *Stack) buildProber() error {
	prober, err := health.New(health.Config{
		Pool:               s.Arbiter,
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
	})
	if err != nil {
		return err
	}
	s.Health = prober
	return nil
}

// buildScaler builds the pool autoscaler over the arbiter's pool.
func (s *Stack) buildScaler() error {
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
	sc, err := elastic.New(ecfg, s.Arbiter, prov, s.Health)
	if err != nil {
		return err
	}
	s.Scaler = sc
	return nil
}

// startDelivery registers the stack's one bus follower: inside every
// Publish it raises every daemon's revocation floor to the map's fence,
// then applies the map to every client, in creation order, and drops the
// clients that turned out closed from the list. A client applies the map
// current at its registration itself (NewClient). The same fenceAll
// carries a recovery's fence to every daemon before any client applies
// the recovery map, and keeps late joiners and warm-restarted daemons on
// the floor.
// Lock order: the arbiter's → the bus's → {s.mu (fenceAll, dropClosed), a
// client's, the telemetry registry's}; deadlock-free because nothing
// calls the arbiter or the bus while holding s.mu or a client's lock, and
// the follower never calls back into the bus.
func (s *Stack) startDelivery() {
	s.stopDelivery = s.Bus.Follow(func(m mapping.Map) {
		if m.Fence > 0 {
			s.fenceAll(m.Fence)
		}
		var closed []*fwd.Client
		for _, c := range s.followers() {
			if !c.ApplyMap(m) {
				closed = append(closed, c)
			}
		}
		if closed != nil {
			s.dropClosed(closed)
		}
	})
}

// dropClosed takes closed off the client list. It filters the list as it
// stands under s.mu, not the one the follower walked, so a client that
// NewClient registered meanwhile stays on it.
func (s *Stack) dropClosed(closed []*fwd.Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	open := slices.DeleteFunc(slices.Clone(s.followers()), func(c *fwd.Client) bool {
		return slices.Contains(closed, c)
	})
	s.clients.Store(&open)
}

// followers returns the clients NewClient made, in creation order, less
// those the follower has found closed; the caller must not modify the
// slice.
func (s *Stack) followers() []*fwd.Client { return *s.clients.Load() }

// fenceAll raises the revocation floor of every daemon the stack started.
func (s *Stack) fenceAll(fence uint64) {
	for _, d := range s.daemons() {
		d.SetFence(fence)
	}
}

// daemons returns a snapshot of Daemons, safe while the scaler is growing
// the pool.
func (s *Stack) daemons() []*ion.Daemon {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*ion.Daemon(nil), s.Daemons...)
}

// CrashControlPlane simulates a SIGKILL of the control plane while the
// data plane keeps running: the control-plane loop stops, the journal is
// closed mid-stream (whatever was fsynced is all that survives), and the
// arbiter reference is dropped. Daemons keep serving and clients keep
// writing on their last mapping — exactly the blackout the paper's
// single-node arbiter exposes. The stack's bus follower stays registered
// (it is the clients' side of the bus, and nothing publishes while the
// control plane is down). Requires JournalDir; coordinate with goroutines
// that use Stack.Arbiter directly.
func (s *Stack) CrashControlPlane() error {
	if s.cfg.JournalDir == "" {
		return errors.New("livestack: CrashControlPlane requires JournalDir (nothing would survive)")
	}
	s.StopControlPlane()
	s.Scaler, s.Health = nil, nil
	if s.Journal != nil {
		s.Journal.Close()
		s.Journal = nil
	}
	s.Arbiter = nil
	return nil
}

// StopControlPlane stops the control-plane loop — no sweep, event or
// scaler step runs after it returns — and releases the prober's
// connections, leaving the arbiter, the data plane and the map delivery
// running: a capacity plane at rest, for an audit to read. Close and
// CrashControlPlane call it; a second call does nothing.
func (s *Stack) StopControlPlane() {
	if s.stopLoop == nil {
		return
	}
	s.stopLoop()
	s.stopLoop = nil
	s.Health.Stop()
}

// RecoverControlPlane warm-restarts a crashed control plane from the
// journal: replay, re-probe every journaled pool member, and publish the
// recovery map, whose fence revokes every pre-crash epoch — inside that
// publish the stack's bus follower fences every live daemon, then carries
// the map to the clients, before it returns; then restart the
// control-plane loop, whose prober clears every journaled mark its nodes
// earn. A node the scaler provisioned is in the journal from the tick
// that spawned it (AddION, down), so none is left outside the recovered
// pool; one that had not risen is a down member to the new scaler. The
// returned error is advisory when an arbiter came up (degraded recovery,
// e.g. a failed re-solve published the pruned pre-crash mapping) and
// fatal when nil Stack.Arbiter proves no recovery happened.
func (s *Stack) RecoverControlPlane() error {
	if s.cfg.JournalDir == "" {
		return errors.New("livestack: RecoverControlPlane requires JournalDir")
	}
	jn, err := s.openJournal()
	if err != nil {
		return err
	}
	arb, rerr := arbiter.Recover(arbiter.RecoverConfig{
		Journal: jn,
		Policy:  s.cfg.Policy,
		Bus:     s.Bus,
		Probe: func(addr string) bool {
			return health.Check(addr, s.cfg.HealthTimeout)
		},
		Weights: s.qosWeights(),
		// Journaled degraded marks replay as quarantines again, under the
		// same floor (Start resolved it: > 0 exactly when detection is on).
		QuarantineFloor: s.cfg.QuarantineFloor,
		Telemetry:       s.Telemetry,
	})
	if arb == nil {
		jn.Close()
		return rerr
	}
	s.Journal = jn
	s.Arbiter = arb
	if err := s.startControlPlane(); err != nil {
		return errors.Join(rerr, err)
	}
	return rerr
}

// addNode builds the next I/O-node daemon, starts it on an ephemeral port
// behind the backend and listener wrap hooks, and records it: the one way
// a daemon enters the stack, at Start and from SpawnION alike.
func (s *Stack) addNode() (*node, error) {
	s.mu.Lock()
	i := s.nextION
	s.nextION++
	s.mu.Unlock()
	sched, err := agios.NewByName(s.Scheduler())
	if err != nil {
		return nil, err
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
		MaxInflight:    s.cfg.MaxInflight,
		RetryAfterHint: s.cfg.RetryAfterHint,
		WireChecksum:   s.cfg.WireChecksum,
		DedupWindow:    s.cfg.DedupWindow,
	}, backend)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if wrap := s.wrapListener(i); wrap != nil {
		ln = wrap(ln)
	}
	addr, err := d.StartOn(ln)
	if err != nil {
		return nil, err
	}
	// A node spawned after a recovery must start at the current revocation
	// floor, not at zero — otherwise a stale pre-crash client could land a
	// revoked-epoch write on the one fresh node.
	if f := s.Bus.Current().Fence; f > 0 {
		d.SetFence(f)
	}
	n := &node{idx: i, d: d, addr: addr}
	s.mu.Lock()
	s.Daemons = append(s.Daemons, d)
	s.Addrs = append(s.Addrs, addr)
	s.nodes[addr] = n
	s.mu.Unlock()
	return n, nil
}

// wrapListener binds daemon index i into Config.WrapListener, the stack's
// one listener hook (nil without one: the listener is used as it is).
func (s *Stack) wrapListener(i int) func(net.Listener) net.Listener {
	if s.cfg.WrapListener == nil {
		return nil
	}
	return func(ln net.Listener) net.Listener { return s.cfg.WrapListener(i, ln) }
}

// SpawnION provisions one new I/O-node daemon on an ephemeral port and
// registers it in the stack's daemon table (NOT the arbiter pool — the
// scaler adds it there, down, in the same tick). Returns the new daemon's
// address.
func (s *Stack) SpawnION() (string, error) {
	n, err := s.addNode()
	if err != nil {
		return "", err
	}
	return n.addr, nil
}

// DecommissionION permanently retires the daemon at addr: the daemon is
// closed and every stack client releases its pooled connection to it (a
// decommissioned address never comes back, unlike a killed-and-restarted
// one). Idempotent; unknown addresses error.
func (s *Stack) DecommissionION(addr string) error {
	s.mu.Lock()
	n := s.nodes[addr]
	if n == nil {
		s.mu.Unlock()
		return fmt.Errorf("livestack: no I/O node at %s", addr)
	}
	if n.gone {
		s.mu.Unlock()
		return nil
	}
	n.gone, n.last = true, nil
	s.mu.Unlock()

	err := n.d.Close()
	for _, c := range s.followers() {
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
	n := s.nodes[addr]
	if n == nil || n.gone {
		return true // gone is as quiet as it gets
	}
	depth, ops := n.d.Activity()
	last := n.last
	n.last = &ionActivity{depth: depth, ops: ops}
	return last != nil && depth == 0 && last.depth == 0 && ops == last.ops
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
	if n := s.nodes[addr]; n != nil {
		return n.d
	}
	return nil
}

// RestartION warm-restarts the i-th daemon on its original address,
// re-applying the stack's fault-injection listener wrapper when one is
// configured. The daemon must have been Closed first (a "kill"); once it
// serves again, the health prober observes it and its Rise re-admits it to
// arbitration — the full crash→rejoin loop. The address is unchanged, so
// existing mappings, client pools, and gates converge on their own.
func (s *Stack) RestartION(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.Addrs) {
		s.mu.Unlock()
		return fmt.Errorf("livestack: no I/O node %d", i)
	}
	n := s.nodes[s.Addrs[i]]
	gone := n.gone
	s.mu.Unlock()
	if gone {
		return fmt.Errorf("livestack: %s was decommissioned, spawn a new I/O node instead", n.addr)
	}
	if s.Arbiter != nil {
		if st, _ := s.Arbiter.StateOf(n.addr); st.Has(nodestate.Draining) {
			return fmt.Errorf("livestack: %s is draining, restart refused (let the drain finish or abort it first)", n.addr)
		}
	}
	_, err := n.d.Restart(s.wrapListener(n.idx))
	return err
}

// NewClient creates a forwarding client for an application. The client
// follows the stack's bus and routes on the current map on return: it is
// registered first and then given the bus's current map, so a publication
// racing the call reaches it one way or the other (ApplyMap drops the
// older of the two). An application the arbiter has not
// assigned I/O nodes (via JobStarted) goes direct.
func (s *Stack) NewClient(appID string) (*fwd.Client, error) {
	rpcOpts := s.cfg.RPC
	rpcOpts.WireChecksum = s.cfg.WireChecksum
	direct := pfs.FileSystem(s.Store)
	if s.cfg.WrapDirect != nil {
		direct = s.cfg.WrapDirect(direct)
	}
	c, err := fwd.NewClient(fwd.Config{
		AppID:     appID,
		Direct:    direct,
		ChunkSize: s.cfg.ChunkSize,
		PoolSize:  s.cfg.PoolSize,
		RPC:       rpcOpts,
		Throttle:  s.cfg.Throttle,
		Hedge:     s.cfg.Hedge,
		Latency:   s.latSketch,
		Dedup:     s.cfg.DedupWindow > 0,
		QoS:       s.cfg.QoS.ClassFor(appID),
		Telemetry: s.Telemetry,
		Tracer:    s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	clients := append(slices.Clip(s.followers()), c)
	s.clients.Store(&clients)
	s.mu.Unlock()
	c.ApplyMap(s.Bus.Current())
	return c, nil
}

// Close stops the control plane, unregisters the stack's bus follower,
// then closes the clients and daemons.
func (s *Stack) Close() {
	s.StopControlPlane()
	if s.stopDelivery != nil {
		s.stopDelivery()
	}
	for _, c := range s.followers() {
		c.Close()
	}
	for _, d := range s.daemons() {
		d.Close()
	}
	if s.Journal != nil {
		s.Journal.Close()
		s.Journal = nil
	}
}
