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
// The prober keeps no table of its own: the arbiter's pool is the one
// record of which I/O nodes exist and what condition each is in. Every
// sweep reads the pool's members and their conditions once (Config.Pool),
// pings the members, and debounces each plane against the condition the
// pool records — so a member added down rises through the ordinary edge,
// and a mark anyone set converges to what the probes see.
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

// Pool is the table of I/O nodes the prober watches (implemented by
// *arbiter.Arbiter): the members, and the condition each is recorded in.
type Pool interface {
	Pool() []string
	StateOf(addr string) (nodestate.State, bool)
}

// Config parameterizes a prober.
type Config struct {
	// Pool is what the prober probes and judges against. Required.
	Pool Pool
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

// nodeState is what the prober keeps per pool member: its probe
// connection, one debouncer per plane, and the last load sample. It is
// made the first time a sweep finds the address in the pool and dropped
// at the first sweep that does not.
type nodeState struct {
	cli     *rpc.Client
	streaks [numPlanes]streak

	lastRejects int64  // cumulative reject counter from the last sweep
	sawRejects  bool   // lastRejects holds a real sample (not the zero value)
	lastDepth   int64  // queue depth from the last loaded sweep
	sampledIn   uint64 // the sweep that sampled lastDepth; 0 = never
}

// target is one member as a sweep judges it: the condition the pool
// recorded when the sweep began, moved by the sweep's own events.
type target struct {
	addr string
	st   nodestate.State
	ns   *nodeState
}

// Prober pings the members of a pool and reports the transitions it
// debounces against the conditions the pool records.
type Prober struct {
	cfg    Config
	planes [numPlanes]plane

	mu     sync.Mutex
	nodes  map[string]*nodeState
	sweeps uint64 // sweeps judged so far; the clock sample ages count in

	tel struct {
		probes, failures *telemetry.Counter
		// edges[kind] counts the events fired; the Slow/Restore pair is
		// registered only when slowActive.
		edges [nodestate.NumEvents]*telemetry.Counter
	}
}

// New builds a prober over cfg.Pool. Nothing is probed until the caller
// sweeps with ProbeOnce.
func New(cfg Config) (*Prober, error) {
	if cfg.Pool == nil {
		return nil, errors.New("health: a pool is required")
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
		nodes: map[string]*nodeState{},
	}
	reg := cfg.Telemetry
	p.tel.probes = reg.Counter("health_probes_total")
	p.tel.failures = reg.Counter("health_probe_failures_total")
	p.tel.edges[nodestate.Fail] = reg.Counter("health_transitions_down_total")
	p.tel.edges[nodestate.Rise] = reg.Counter("health_transitions_up_total")
	p.tel.edges[nodestate.Hot] = reg.Counter("health_transitions_overloaded_total")
	p.tel.edges[nodestate.Cool] = reg.Counter("health_transitions_recovered_total")
	if cfg.slowActive() {
		// Lazily registered: a stack without a slowness factor must not
		// expose any health_degraded_* series (the absence test pins it).
		p.tel.edges[nodestate.Slow] = reg.Counter("health_degraded_transitions_total")
		p.tel.edges[nodestate.Restore] = reg.Counter("health_degraded_recovered_total")
	}
	return p, nil
}

// Load reports the last sampled queue depth of every pool member that is
// up — the autoscaler's demand signal. A node whose sample is more than
// sampleStaleness sweeps old, or that was never sampled, is omitted: a
// frozen depth or a zero that was never measured is not evidence of load.
// Nodes the pool has down are the liveness plane's problem, not the
// capacity planner's.
func (p *Prober) Load() map[string]int64 {
	p.mu.Lock()
	out := make(map[string]int64, len(p.nodes))
	for addr, ns := range p.nodes {
		if ns.sampledIn > 0 && p.sweeps-ns.sampledIn <= sampleStaleness {
			out[addr] = ns.lastDepth
		}
	}
	p.mu.Unlock()
	for addr := range out {
		if st, ok := p.cfg.Pool.StateOf(addr); !ok || st.Has(nodestate.Down) {
			delete(out, addr)
		}
	}
	return out
}

// Stop releases the probe connections. The caller must have ended its
// sweeps first.
func (p *Prober) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ns := range p.nodes {
		ns.cli.Close()
	}
}

// track reads the pool — its members, ascending, and the condition each
// is recorded in — makes a record for every member seen the first time
// and drops the record of every address no longer in it, releasing its
// probe connection and its latency samples (a reused address must not
// inherit them).
func (p *Prober) track() []target {
	addrs := p.cfg.Pool.Pool()
	sort.Strings(addrs)
	targets := make([]target, 0, len(addrs))
	for _, addr := range addrs {
		if st, ok := p.cfg.Pool.StateOf(addr); ok { // not removed since Pool returned
			targets = append(targets, target{addr: addr, st: st})
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range targets {
		t := &targets[i]
		if t.ns = p.nodes[t.addr]; t.ns == nil {
			t.ns = &nodeState{
				cli: rpc.Dial(t.addr, 1).
					WithOptions(rpc.Options{CallTimeout: p.cfg.Timeout, WireChecksum: p.cfg.WireChecksum}).
					Instrument(p.cfg.Telemetry, nil),
			}
			p.nodes[t.addr] = t.ns
		}
	}
	for addr, ns := range p.nodes {
		if !slices.ContainsFunc(targets, func(t target) bool { return t.addr == addr }) {
			delete(p.nodes, addr)
			ns.cli.Close()
			p.cfg.Latency.Forget(addr)
		}
	}
	return targets
}

// ProbeOnce performs one synchronous sweep over the pool's members,
// applies the thresholds against the conditions the pool records, and
// returns the debounced changes in a fixed order — liveness first, then
// overload, then slowness, ascending address within each — so the same
// probes always produce the same sequence of arbitrations. Within a sweep
// each member is judged against the condition it had when the sweep read
// the pool, moved by the sweep's own events: a node the liveness plane
// just failed is not also scored slow.
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
	targets := p.track()
	results := make([]probeResult, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := targets[i].ns.cli.Call(&rpc.Message{Op: rpc.OpPing})
			rtt := time.Since(start)
			switch {
			case err == nil:
				results[i] = probeResult{ok: true, loaded: true, depth: resp.Size, rejects: resp.Offset}
				// Only clean pings feed the latency sketch: a busy
				// response is shed before queueing and a failed one
				// measures the timeout, not the node.
				p.cfg.Latency.Observe(targets[i].addr, rtt)
			case errors.Is(err, rpc.ErrBusy):
				results[i] = probeResult{ok: true, busy: true}
			}
		}(i)
	}
	wg.Wait()

	var fired [numPlanes][]Event
	detecting := p.cfg.overloadActive()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweeps++
	for i := range targets {
		r, t, ns := results[i], &targets[i], targets[i].ns
		p.tel.probes.Inc()
		if !r.ok {
			p.tel.failures.Inc()
		}
		p.observe(t, liveness, !r.ok, &fired)

		// Load bookkeeping and overload debouncing: keep the sampled
		// depth and per-sweep shed delta unconditionally, move the
		// condition only while a signal is configured.
		var shedDelta int64
		if r.loaded {
			ns.lastDepth = r.depth
			ns.sampledIn = p.sweeps
			if ns.sawRejects && r.rejects >= ns.lastRejects {
				shedDelta = r.rejects - ns.lastRejects
			}
			ns.lastRejects = r.rejects
			ns.sawRejects = true
		}
		// Dead-looking sweeps feed the liveness thresholds, not the
		// overload ones; the overload condition holds as it is.
		if detecting && r.ok {
			hot := r.busy ||
				(r.loaded && p.cfg.OverloadQueueDepth > 0 && r.depth >= int64(p.cfg.OverloadQueueDepth)) ||
				(r.loaded && p.cfg.OverloadShedDelta > 0 && shedDelta >= int64(p.cfg.OverloadShedDelta))
			p.observe(t, overload, hot, &fired)
		}
	}
	if p.cfg.slowActive() {
		p.scoreSlow(targets, &fired)
	}
	return slices.Concat(fired[:]...)
}

// observe feeds one sweep's signal for one plane of one member through
// its debouncer; on a flip it moves the sweep's view of the condition,
// counts the edge, and queues the event. Caller holds p.mu.
func (p *Prober) observe(t *target, plane int, signal bool, fired *[numPlanes][]Event) {
	pl := p.planes[plane]
	if !t.ns.streaks[plane].observe(t.st.Has(pl.bit), signal, pl.setAt, pl.clearedAt) {
		return
	}
	kind := pl.clear
	if signal {
		kind = pl.set
	}
	t.st, _, _ = t.st.Apply(kind) // never refused: the prober sends no DrainStart
	p.tel.edges[kind].Inc()
	fired[plane] = append(fired[plane], Event{Addr: t.addr, Kind: kind})
}

// scoreSlow runs one sweep of the peer-relative fail-slow scorer over the
// sweep's targets, queueing the events it fires. Caller holds p.mu.
//
// A node is slow on a sweep when its median sketch latency exceeds the
// median of its peers' medians × SlowFactor (and the slowMinLatency
// floor). Judging against peers rather than an absolute bound makes
// the scorer self-calibrating: a cluster that is uniformly slow — cold
// caches, shared-disk contention — degrades nobody, while one node 50×
// off its peers stands out within a window regardless of the absolute
// numbers.
func (p *Prober) scoreSlow(targets []target, fired *[numPlanes][]Event) {
	// Median latency of every up node with enough samples to judge. Down
	// or unsampled nodes are absent and hold their degraded condition as
	// it is; the liveness plane owns them until they answer again.
	var judged []*target
	var meds []time.Duration
	for i := range targets {
		t := &targets[i]
		if t.st.Has(nodestate.Down) || p.cfg.Latency.Samples(t.addr) < slowMinSamples {
			continue
		}
		if m, ok := p.cfg.Latency.Median(t.addr); ok {
			judged = append(judged, t)
			meds = append(meds, m)
		}
	}
	peers := make([]time.Duration, 0, len(meds))
	for i, t := range judged {
		// Median of the peers' medians, the node under judgment
		// excluded so a very slow node cannot raise its own bar.
		peers = append(append(peers[:0], meds[:i]...), meds[i+1:]...)
		if len(peers) < 2 {
			continue // peer-relative scoring needs a quorum of peers
		}
		slices.Sort(peers)
		peerMed := peers[len(peers)/2]
		slow := meds[i] >= slowMinLatency &&
			float64(meds[i]) > float64(peerMed)*p.cfg.SlowFactor
		p.observe(t, slowness, slow, fired)
	}
}
