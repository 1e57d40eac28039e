// Package health is the monitoring plane of the forwarding stack: a
// heartbeat prober that pings every I/O-node daemon over the existing rpc
// protocol (OpPing), debounces what it sees into nodestate events, and
// hands the control plane that one stream: each sweep (ProbeOnce) returns
// the events it fired.
//
// The paper's premise is that forwarding is on-demand and optional — an
// application with an empty allocation accesses the PFS directly — so an
// I/O node that stops answering must be *detected* and *removed from the
// arbitration pool*, not waited on. The prober is the detector half of
// that loop: the arbiter (Transition) is the reactor. The prober runs no
// goroutine of its own: livestack's one control-plane loop calls
// ProbeOnce every probe interval, applies the returned events to the
// arbiter, and then steps the autoscaler, which reads Load.
//
// Detection is threshold-debounced in both directions: FailThreshold
// consecutive failed pings mark a node down (one lost packet is not an
// outage), RiseThreshold consecutive successful pings mark it back up
// (one lucky ping is not a recovery).
//
// Beyond the binary planes (up/down, overloaded/recovered) the prober
// optionally runs a latency plane for gray failures: every successful
// ping's round-trip time is recorded into a per-node latency sketch
// (shared with the forwarding clients, which feed their own observed
// call latencies into the same rings), and a peer-relative scorer marks
// a node *degraded* when its median latency exceeds the median of its
// peers' medians by a configurable factor, sustained over a window of
// sweeps, with a longer clean window required to restore it. Degraded
// is distinct from down (the node still answers) and from overloaded
// (its queue may be empty — the node is slow, not busy); the arbiter
// reacts by quarantining it from new allocations. The whole plane is
// opt-in: SlowFactor ≤ 0 leaves behavior byte-identical to before.
package health

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Event is one debounced change of a probed node's condition: Fail/Rise
// from the liveness plane, Hot/Cool from the overload plane (an overloaded
// node still answers pings: deprioritize it, do not remove it), Slow/
// Restore from the latency plane (alive, maybe idle, slow next to its peers).
type Event struct {
	// Addr is the I/O-node address whose condition changed.
	Addr string
	// Kind is what changed, in the vocabulary the arbiter consumes.
	Kind nodestate.Event
}

// Config parameterizes a prober.
type Config struct {
	// Addrs are the I/O-node addresses to probe. Required.
	Addrs []string
	// Timeout is the per-ping deadline; ≤0 selects 500ms, Check's
	// default too (livestack derives its own from the probe interval).
	// Probes use a dedicated rpc client with no retries and no gate, so
	// the prober sees raw reachability. A sweep lasts at most one
	// Timeout: its pings run in parallel.
	Timeout time.Duration
	// FailThreshold consecutive failed pings mark a node down; ≤0
	// selects 3.
	FailThreshold int
	// RiseThreshold consecutive successful pings mark a down node back
	// up; ≤0 selects 1.
	RiseThreshold int

	// OverloadQueueDepth marks a sweep as overloaded when the daemon's
	// reported queue depth is at least this value; ≤0 disables the
	// depth signal. Daemons report their depth in the ping response
	// (Size field), so overload detection costs no extra RPCs.
	OverloadQueueDepth int
	// OverloadShedDelta marks a sweep as overloaded when the daemon's
	// cumulative reject counter (ping response Offset field) grew by at
	// least this much since the previous sweep; ≤0 disables the shed
	// signal. Overload detection as a whole is active only when at least
	// one of the two signals is enabled; a ping answered with a busy
	// response always counts as an overloaded sweep while active (and as
	// a *successful* probe either way — shedding proves the node alive).
	OverloadShedDelta int
	// OverloadThreshold consecutive overloaded sweeps mark a node
	// overloaded; ≤0 selects 2.
	OverloadThreshold int
	// OverloadRecovery consecutive healthy sweeps clear the mark; ≤0
	// selects 2.
	OverloadRecovery int

	// SlowFactor enables the fail-slow scorer: a node whose median
	// latency exceeds the median of its peers' medians by this factor
	// counts a slow sweep. ≤0 disables the latency plane entirely — no
	// sketch, no scorer, no degraded transitions, no degraded series.
	SlowFactor float64
	// SlowWindow consecutive slow sweeps mark a node degraded; ≤0
	// selects 3.
	SlowWindow int
	// SlowRecovery consecutive clean sweeps restore a degraded node;
	// ≤0 selects 5 — recovery is deliberately slower than detection
	// (hysteresis), so a node flickering around the threshold does not
	// flap in and out of quarantine.
	SlowRecovery int
	// Latency is the sketch the scorer reads and probe RTTs feed. Leave
	// nil to let the prober own a private sketch; pass a shared one so
	// forwarding clients can feed client-observed call latencies into
	// the same rings (livestack does). Ignored when SlowFactor ≤ 0.
	Latency *latency.Sketch

	// WireChecksum makes probe pings carry a CRC32C trailer, matching a
	// stack that runs with wire checksums on (daemons verify whatever
	// arrives; the trailer keeps the probe path exercised end to end).
	WireChecksum bool

	// Telemetry receives probe metrics; nil disables them.
	Telemetry *telemetry.Registry
}

// overloadActive reports whether any overload signal is configured.
func (c Config) overloadActive() bool {
	return c.OverloadQueueDepth > 0 || c.OverloadShedDelta > 0
}

// slowActive reports whether the fail-slow latency plane is configured.
func (c Config) slowActive() bool {
	return c.SlowFactor > 0
}

// defaultTimeout is the ping deadline of a prober or a Check whose caller
// set none.
const defaultTimeout = 500 * time.Millisecond

// sampleStaleness is how many sweeps a load sample stays evidence: Load
// omits a node whose last sample is older. A node that stops producing
// samples (its pings time out or come back busy) leaves its depth frozen
// at the last value, and scaling on frozen evidence drains busy nodes
// that merely *look* idle.
const sampleStaleness = 3

// slowMinSamples is how many sketch samples a node needs before the
// scorer will judge it (or count it as a peer): scoring a node on one
// or two pings would make the first sweep after a restart decisive.
const slowMinSamples = 4

// slowMinLatency floors the scorer: medians below it never count as slow,
// however fast the peers are, so microsecond-level jitter on an idle stack
// cannot degrade anything.
const slowMinLatency = time.Millisecond

// The three debounced planes, in the order one sweep's events are
// delivered.
const (
	liveness = iota
	overload
	slowness
	numPlanes
)

// plane is one debounced condition: the bit it owns, the events its two
// edges fire, and how many consecutive contrary sweeps set and clear it.
type plane struct {
	bit              nodestate.State
	set, clear       nodestate.Event
	setAt, clearedAt int
}

// streak debounces one boolean signal against one condition bit by
// counting the consecutive sweeps that contradict the bit. Counting sweeps
// (not wall time) keeps every plane deterministic under ProbeOnce.
type streak struct{ run int }

// observe feeds one sweep: on is the bit's current value, signal what the
// sweep saw. It reports that the bit should flip — after set consecutive
// signals while off, clear consecutive non-signals while on; a sweep that
// agrees with the bit resets the count.
func (k *streak) observe(on, signal bool, set, clear int) (flipped bool) {
	if signal == on {
		k.run = 0
		return false
	}
	k.run++
	need := set
	if on {
		need = clear
	}
	if k.run < need {
		return false
	}
	k.run = 0
	return true
}

// nodeState tracks one address: its probe connection, its debounced
// conditions, one debouncer per plane, and the last load sample.
type nodeState struct {
	cli     *rpc.Client
	state   nodestate.State // probed bits only
	streaks [numPlanes]streak

	lastRejects int64  // cumulative reject counter from the last sweep
	sawRejects  bool   // lastRejects holds a real sample (not the zero value)
	lastDepth   int64  // queue depth from the last loaded sweep
	sampledIn   uint64 // the sweep that sampled lastDepth; 0 = never

	queueDepth, shedDelta *telemetry.Gauge // the node's health_ion_* series
}

// Prober pings a dynamic set of I/O nodes and reports transitions. The
// set starts as Config.Addrs and breathes through Add/Remove (the
// autoscaler's hooks).
type Prober struct {
	cfg    Config
	planes [numPlanes]plane

	mu     sync.Mutex
	state  map[string]*nodeState
	sweeps uint64 // sweeps judged so far; the clock sample ages count in

	tel struct {
		probes, failures *telemetry.Counter
		// edges[kind] counts the events fired; the Slow/Restore pair and
		// nodesDegraded are registered only when slowActive.
		edges           [nodestate.NumEvents]*telemetry.Counter
		nodesUp         *telemetry.Gauge
		nodesOverloaded *telemetry.Gauge
		nodesDegraded   *telemetry.Gauge
	}
}

// New builds a prober; every node starts optimistically up. Nothing is
// probed until the caller sweeps with ProbeOnce.
func New(cfg Config) (*Prober, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("health: at least one address is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RiseThreshold <= 0 {
		cfg.RiseThreshold = 1
	}
	if cfg.OverloadThreshold <= 0 {
		cfg.OverloadThreshold = 2
	}
	if cfg.OverloadRecovery <= 0 {
		cfg.OverloadRecovery = 2
	}
	if cfg.slowActive() {
		if cfg.SlowWindow <= 0 {
			cfg.SlowWindow = 3
		}
		if cfg.SlowRecovery <= 0 {
			cfg.SlowRecovery = 5
		}
		if cfg.Latency == nil {
			cfg.Latency = latency.NewSketch(0)
		}
	}
	p := &Prober{
		cfg: cfg,
		planes: [numPlanes]plane{
			liveness: {nodestate.Down, nodestate.Fail, nodestate.Rise, cfg.FailThreshold, cfg.RiseThreshold},
			overload: {nodestate.Overloaded, nodestate.Hot, nodestate.Cool, cfg.OverloadThreshold, cfg.OverloadRecovery},
			slowness: {nodestate.Degraded, nodestate.Slow, nodestate.Restore, cfg.SlowWindow, cfg.SlowRecovery},
		},
		state: make(map[string]*nodeState, len(cfg.Addrs)),
	}
	reg := cfg.Telemetry
	p.tel.probes = reg.Counter("health_probes_total")
	p.tel.failures = reg.Counter("health_probe_failures_total")
	p.tel.edges[nodestate.Fail] = reg.Counter("health_transitions_down_total")
	p.tel.edges[nodestate.Rise] = reg.Counter("health_transitions_up_total")
	p.tel.edges[nodestate.Hot] = reg.Counter("health_transitions_overloaded_total")
	p.tel.edges[nodestate.Cool] = reg.Counter("health_transitions_recovered_total")
	p.tel.nodesUp = reg.Gauge("health_ions_up")
	p.tel.nodesOverloaded = reg.Gauge("health_ions_overloaded")
	if cfg.slowActive() {
		// Lazily registered: a stack without a slowness factor must not
		// expose any health_degraded_* series (the absence test pins it).
		p.tel.edges[nodestate.Slow] = reg.Counter("health_degraded_transitions_total")
		p.tel.edges[nodestate.Restore] = reg.Counter("health_degraded_recovered_total")
		p.tel.nodesDegraded = reg.Gauge("health_degraded_ions")
	}
	for _, addr := range cfg.Addrs {
		// The initial pool is trusted immediately, New's historical
		// behaviour; nodes added later choose their own posture.
		if err := p.Add(addr, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Add starts probing addr. initial seeds the debounced conditions
// (Draining, which no probe can see, is dropped): the zero State trusts
// the node immediately, the posture New gives the initial pool;
// nodestate.Down makes it start down, so RiseThreshold successful pings
// must land before its Rise fires — what a freshly provisioned node
// deserves, and the signal the autoscaler's rollback deadline watches. A
// control plane restarted from its journal seeds each member with the
// arbiter's recorded conditions: the prober reports edges only, so a node
// seeded healthy would never fire the Rise/Cool/Restore that clears its
// mark. Duplicate addresses are refused.
func (p *Prober) Add(addr string, initial nodestate.State) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.state[addr]; dup {
		return errors.New("health: duplicate address " + addr)
	}
	st := &nodeState{state: initial &^ nodestate.Draining}
	st.cli = rpc.Dial(addr, 1).
		WithOptions(rpc.Options{CallTimeout: p.cfg.Timeout, WireChecksum: p.cfg.WireChecksum}).
		Instrument(p.cfg.Telemetry, nil)
	st.queueDepth = p.cfg.Telemetry.Gauge(fmt.Sprintf("health_ion_queue_depth{ion=%q}", addr))
	st.shedDelta = p.cfg.Telemetry.Gauge(fmt.Sprintf("health_ion_shed_delta{ion=%q}", addr))
	p.state[addr] = st
	p.gauge(st.state, +1)
	return nil
}

// gauge adds (d = +1) or withdraws (d = -1) one node in state st from the
// three node gauges. Caller holds p.mu.
func (p *Prober) gauge(st nodestate.State, d int64) {
	if !st.Has(nodestate.Down) {
		p.tel.nodesUp.Add(d)
	}
	if st.Has(nodestate.Overloaded) {
		p.tel.nodesOverloaded.Add(d)
	}
	if st.Has(nodestate.Degraded) {
		p.tel.nodesDegraded.Add(d)
	}
}

// Remove stops probing addr and releases its probe connection. A sweep in
// flight may still ping the address once; its result is discarded.
// Removing an unknown address is a no-op.
func (p *Prober) Remove(addr string) {
	p.mu.Lock()
	st := p.state[addr]
	delete(p.state, addr)
	if st != nil {
		p.gauge(st.state, -1)
	}
	p.mu.Unlock()
	p.cfg.Latency.Forget(addr) // stale samples must not haunt a reused address
	if st != nil {
		st.cli.Close()
	}
}

// StateOf reports addr's debounced conditions (the Down, Overloaded and
// Degraded bits); ok is false for an address that is not being probed.
func (p *Prober) StateOf(addr string) (st nodestate.State, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ns := p.state[addr]; ns != nil {
		return ns.state, true
	}
	return 0, false
}

// Load reports the last sampled queue depth of every probed node that is
// currently up — the autoscaler's demand signal. A node whose sample is
// more than sampleStaleness sweeps old, or that was never sampled, is
// omitted: a frozen depth or a zero that was never measured is not
// evidence of load. Nodes that are down are the liveness plane's problem,
// not the capacity planner's.
func (p *Prober) Load() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.state))
	for addr, st := range p.state {
		if !st.state.Has(nodestate.Down) && st.sampledIn > 0 && p.sweeps-st.sampledIn <= sampleStaleness {
			out[addr] = st.lastDepth
		}
	}
	return out
}

// Stop releases the probe connections. The caller must have ended its
// sweeps first.
func (p *Prober) Stop() {
	p.mu.Lock()
	clients := make([]*rpc.Client, 0, len(p.state))
	for _, st := range p.state {
		clients = append(clients, st.cli)
	}
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// ProbeOnce performs one synchronous sweep over every address, applies
// the thresholds, and returns the debounced changes in a fixed order —
// liveness first, then overload, then slowness, ascending address within
// each — so the same probes always produce the same sequence of
// arbitrations.
func (p *Prober) ProbeOnce() []Event {
	// probeResult is one ping's outcome. A busy (shed) ping proves the
	// node alive — only transport errors count as probe failures — but it
	// carries no load sample, so depth/rejects are valid only when loaded
	// is set.
	type probeResult struct {
		ok      bool
		busy    bool
		loaded  bool
		depth   int64
		rejects int64
	}
	// Snapshot the member set first: Add/Remove may run concurrently (the
	// autoscaler breathes the pool), and pings must not hold the lock.
	// Ascending address order, kept through judging: event order reaches
	// the arbiter's mapping, so it must not depend on map iteration.
	p.mu.Lock()
	addrs := make([]string, 0, len(p.state))
	for addr := range p.state {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	clients := make([]*rpc.Client, len(addrs))
	for i, addr := range addrs {
		clients[i] = p.state[addr].cli
	}
	p.mu.Unlock()

	results := make([]probeResult, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := clients[i].Call(&rpc.Message{Op: rpc.OpPing})
			rtt := time.Since(start)
			switch {
			case err == nil:
				results[i] = probeResult{ok: true, loaded: true, depth: resp.Size, rejects: resp.Offset}
				// Only clean pings feed the latency sketch: a busy
				// response is shed before queueing and a failed one
				// measures the timeout, not the node.
				p.cfg.Latency.Observe(addrs[i], rtt)
			case errors.Is(err, rpc.ErrBusy):
				results[i] = probeResult{ok: true, busy: true}
			}
		}(i)
	}
	wg.Wait()

	var fired [numPlanes][]Event
	detecting := p.cfg.overloadActive()
	p.mu.Lock()
	p.sweeps++
	for i, addr := range addrs {
		r := results[i]
		st := p.state[addr]
		if st == nil {
			continue // removed while the sweep was in flight
		}
		p.tel.probes.Inc()
		if !r.ok {
			p.tel.failures.Inc()
		}
		p.observe(addr, st, liveness, !r.ok, &fired)

		// Load bookkeeping and overload debouncing: export the sampled
		// depth and per-sweep shed delta unconditionally, move the
		// condition only while a signal is configured.
		var shedDelta int64
		if r.loaded {
			st.lastDepth = r.depth
			st.sampledIn = p.sweeps
			st.queueDepth.Set(r.depth)
			if st.sawRejects && r.rejects >= st.lastRejects {
				shedDelta = r.rejects - st.lastRejects
			}
			st.lastRejects = r.rejects
			st.sawRejects = true
			st.shedDelta.Set(shedDelta)
		}
		// Dead-looking sweeps feed the liveness thresholds, not the
		// overload ones; the overload condition holds as it is.
		if detecting && r.ok {
			hot := r.busy ||
				(r.loaded && p.cfg.OverloadQueueDepth > 0 && r.depth >= int64(p.cfg.OverloadQueueDepth)) ||
				(r.loaded && p.cfg.OverloadShedDelta > 0 && shedDelta >= int64(p.cfg.OverloadShedDelta))
			p.observe(addr, st, overload, hot, &fired)
		}
	}
	if p.cfg.slowActive() {
		p.scoreSlowLocked(&fired)
	}
	p.mu.Unlock()
	return slices.Concat(fired[:]...)
}

// observe feeds one sweep's signal for one plane of one node through the
// node's debouncer; on a flip it moves the condition bit, counts the edge,
// settles the gauges, and queues the event. Caller holds p.mu.
func (p *Prober) observe(addr string, st *nodeState, plane int, signal bool, fired *[numPlanes][]Event) {
	pl := p.planes[plane]
	if !st.streaks[plane].observe(st.state.Has(pl.bit), signal, pl.setAt, pl.clearedAt) {
		return
	}
	kind := pl.clear
	if signal {
		kind = pl.set
	}
	p.gauge(st.state, -1)
	st.state, _, _ = st.state.Apply(kind) // never refused: the prober sends no DrainStart
	p.gauge(st.state, +1)
	p.tel.edges[kind].Inc()
	fired[plane] = append(fired[plane], Event{Addr: addr, Kind: kind})
}

// scoreSlowLocked runs one sweep of the peer-relative fail-slow scorer,
// queueing the events it fires. Caller holds p.mu.
//
// A node is slow on a sweep when its median sketch latency exceeds the
// median of its peers' medians × SlowFactor (and the slowMinLatency
// floor). Judging against peers rather than an absolute bound makes
// the scorer self-calibrating: a cluster that is uniformly slow — cold
// caches, shared-disk contention — degrades nobody, while one node 50×
// off its peers stands out within a window regardless of the absolute
// numbers.
func (p *Prober) scoreSlowLocked(fired *[numPlanes][]Event) {
	// Median latency of every up node with enough samples to judge. Down
	// or unsampled nodes are absent and hold their degraded condition as
	// it is; the liveness plane owns them until they answer again.
	meds := make(map[string]time.Duration, len(p.state))
	addrs := make([]string, 0, len(p.state))
	for addr, st := range p.state {
		if st.state.Has(nodestate.Down) || p.cfg.Latency.Samples(addr) < slowMinSamples {
			continue
		}
		if m, ok := p.cfg.Latency.Median(addr); ok {
			meds[addr] = m
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		// Median of the peers' medians, the node under judgment
		// excluded so a very slow node cannot raise its own bar.
		peers := make([]time.Duration, 0, len(meds)-1)
		for a, m := range meds {
			if a != addr {
				peers = append(peers, m)
			}
		}
		if len(peers) < 2 {
			continue // peer-relative scoring needs a quorum of peers
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		peerMed := peers[len(peers)/2]
		med := meds[addr]
		slow := med >= slowMinLatency &&
			float64(med) > float64(peerMed)*p.cfg.SlowFactor
		p.observe(addr, p.state[addr], slowness, slow, fired)
	}
}
