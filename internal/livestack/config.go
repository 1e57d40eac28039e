package livestack

import (
	"fmt"
	"net"
	"reflect"
	"time"

	"repro/internal/agios"
	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Config parameterizes a stack. It is the only configuration object: gkfwd
// binds its flags onto one, tests, experiments and bench/ write one as a
// literal, and Validate — which Start runs before it builds anything —
// holds every rule that relates its fields. For numeric fields 0 selects
// the documented default (or leaves the feature off); negative values are
// rejected.
type Config struct {
	// IONs is the number of I/O-node daemons (paper §5.3: 12).
	IONs int
	// Policy arbitrates; nil selects MCKP.
	Policy policy.Policy
	// Scheduler names the AGIOS scheduler for the daemons ("FIFO", "SJF",
	// "AIOLI", "TWINS", "HBRR", "WFQ"); empty selects WFQ when QoS is set
	// and AIOLI, GekkoFWD's aggregating default in this reproduction,
	// otherwise (Stack.Scheduler reports the choice).
	Scheduler string
	// PFS configures the backing store; zero value = functional store.
	PFS pfs.Config
	// Dispatchers is the number of dispatch slots per I/O node (concurrent
	// backend calls; see ion.Config.Dispatchers); 0 selects the daemon
	// default.
	Dispatchers int
	// Telemetry is the stack-wide metrics registry shared by every layer
	// (fwd clients, rpc, daemons, PFS, arbiter); nil creates one.
	Telemetry *telemetry.Registry
	// Tracer joins per-request hops across layers. Nil disables tracing
	// (metrics stay on); pass telemetry.NewTracer to record traces.
	Tracer *telemetry.Tracer

	// ChunkSize is the forwarding clients' request-splitting unit; 0
	// selects fwd.DefaultChunkSize.
	ChunkSize int64
	// PoolSize is each client's RPC connection pool per I/O node; 0
	// selects rpc.DefaultPoolSize. One request is in flight per
	// connection, so this caps a client's concurrency against one node —
	// size it to the application's writer parallelism when queue-depth
	// signals (overload detection, elastic scaling) must see the demand.
	PoolSize int
	// RPC is the failure-tolerance configuration applied to every
	// forwarding client this stack creates: the per-call deadline, how many
	// times a client re-sends a request that failed in transport, and the
	// threshold and cool-down of each client's per-node gate. The zero
	// value keeps the legacy block-forever transport behaviour.
	// BreakerCooldown only applies with BreakerThreshold set. Its
	// WireChecksum is rejected: checksums are a whole-stack switch,
	// WireChecksum below.
	RPC rpc.Options

	// HealthInterval, when >0, runs the stack's control-plane loop: every
	// interval one heartbeat sweep over the daemons, its events fed into
	// the arbiter (Transition), closing the detect→re-arbitrate loop, and
	// then one scaler tick (with Elastic), so it is the scaler's cadence
	// too.
	HealthInterval time.Duration
	// HealthTimeout is the per-ping deadline of the prober and of
	// RecoverControlPlane's re-probe; 0 derives it from the interval
	// (half of it, floored at 100ms). Requires HealthInterval.
	HealthTimeout time.Duration
	// HealthFailThreshold / HealthRiseThreshold debounce transitions;
	// 0 selects the prober defaults. Require HealthInterval.
	HealthFailThreshold int
	HealthRiseThreshold int

	// SlowFactor enables fail-slow (gray failure) detection on the
	// health prober: a node whose probe-RTT median exceeds the median of
	// its peers' medians × SlowFactor for SlowWindow consecutive sweeps
	// is marked degraded (a Slow event), and the arbiter quarantines it —
	// excluded from new allocations while it stays in the pool — until
	// SlowRecovery clean sweeps restore it (a Restore event). Requires
	// HealthInterval. 0 keeps detection off, behavior byte for byte.
	SlowFactor float64
	// SlowWindow / SlowRecovery debounce degraded transitions; 0 selects
	// the prober defaults (3 slow sweeps in, 5 clean sweeps out). Require
	// SlowFactor.
	SlowWindow   int
	SlowRecovery int
	// QuarantineFloor is the live-capacity floor the quarantine may not
	// dig below (see arbiter.WithQuarantine); 0 selects 1. Requires
	// SlowFactor, and must sit below the smallest pool the run can have.
	QuarantineFloor int
	// Hedge configures tail-tolerant hedged requests on every forwarding
	// client this stack creates (see fwd.HedgeConfig). Requires
	// DedupWindow: the hedged write is a same-stamp duplicate that only
	// the daemon's dedup window makes exactly-once. When SlowFactor is
	// also set, clients and the prober share one latency sketch, so probe
	// RTTs and data-path RTTs pool into the same per-node distribution
	// the hedge deadline is drawn from.
	Hedge fwd.HedgeConfig

	// QueueCap bounds each daemon's AGIOS queue (requests); >0 enables
	// bounded admission — past the cap, requests are answered with a busy
	// response instead of queued, until the queue drains to half the cap.
	// 0 keeps the legacy unbounded queue.
	QueueCap int
	// MaxInflight bounds concurrently-handled requests per daemon (shed
	// above it); 0 = unlimited.
	MaxInflight int
	// RetryAfterHint is carried on busy responses; 0 selects the daemon
	// default. Requires QueueCap or MaxInflight.
	RetryAfterHint time.Duration
	// Throttle configures adaptive per-ION client throttling (AIMD
	// window) on every forwarding client this stack creates. The zero
	// value disables throttling; the windows require Enabled.
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

	// OverloadQueueDepth / OverloadShedDelta are the prober's overload
	// signals (see health.Config): the Hot/Cool events they raise feed the
	// arbiter (Transition) so load is steered away from saturated I/O
	// nodes without removing them from the pool. 0 = off; both require
	// HealthInterval, the depth must be one a bounded queue can reach
	// (≤ QueueCap), and the shed count needs a daemon that sheds
	// (QueueCap or MaxInflight).
	OverloadQueueDepth int
	OverloadShedDelta  int
	// OverloadThreshold / OverloadRecovery debounce those signals; 0
	// selects the prober defaults. Require one of the two signals.
	OverloadThreshold int
	OverloadRecovery  int

	// JournalDir, when non-empty, makes the control plane crash-safe: the
	// arbiter appends every transition to a write-ahead journal in this
	// directory, and epoch fencing turns on end to end — forwarding
	// clients stamp writes with the mapping epoch, daemons reject writes
	// from revoked epochs, and CrashControlPlane/RecoverControlPlane
	// exercise the warm-restart path. Empty (the default) keeps the
	// pre-journal stack, behavior and wire format byte for byte.
	JournalDir string

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
	// decommission idle ones. Requires HealthInterval (the scaler feeds
	// on the prober's load samples and ticks once per sweep, so its
	// windows count sweeps) and Min ≤ IONs ≤ Max. The scaler's
	// Quiesced and Telemetry seams are filled in by the stack when unset.
	// nil keeps today's static pool byte for byte.
	Elastic *elastic.Config
	// WrapProvisioner, when non-nil, interposes on the scaler's
	// provisioner — the hook chaos tests use to inject provisioning
	// failures. Requires Elastic.
	WrapProvisioner func(elastic.Provisioner) elastic.Provisioner

	// WrapListener, when non-nil, interposes on each daemon's listener
	// before it starts serving — the hook chaos tests use to inject
	// network faults (faultnet.WrapListener) on a chosen I/O node.
	WrapListener func(ionIndex int, ln net.Listener) net.Listener
	// WrapBackend, when non-nil, interposes on each daemon's storage
	// backend — the hook the scenario kit uses to slow one I/O node down
	// (scenario.Backend) and force it into overload.
	WrapBackend func(ionIndex int, b ion.Backend) ion.Backend
	// WrapDirect, when non-nil, interposes on the file system clients use
	// for direct-to-PFS forwarding (no allocation, or failover). Without
	// it the direct path hits the in-memory store at line rate, which no
	// real PFS offers — chaos tests wrap it with the same injected
	// latency as the I/O-node backends.
	WrapDirect func(fs pfs.FileSystem) pfs.FileSystem
}

// schedulerName resolves the daemons' scheduler: an explicit Scheduler
// wins, a tenant policy selects WFQ (priorities are inert under the
// others), and AIOLI is the default.
func (c *Config) schedulerName() string {
	switch {
	case c.Scheduler != "":
		return c.Scheduler
	case !c.QoS.Empty():
		return "WFQ"
	}
	return "AIOLI"
}

// Validate reports the first rule c breaks, naming the field. Zero means
// "default" or "feature off" for every knob, so the rules are: negative
// never; a tuning knob only together with the switch that makes it live —
// alone it is dead configuration, and accepting it silently would tell the
// operator a protection is active when it is not; and the few relations
// between values. Rules internal to another package stay there (elastic's
// bounds and hysteresis band, fwd's hedge-needs-dedup for direct
// fwd.NewClient users); Validate calls that owner where one is exported.
func (c *Config) Validate() error {
	if c.IONs < 1 {
		return fmt.Errorf("livestack: IONs must be at least 1, got %d", c.IONs)
	}
	if _, err := agios.NewByName(c.schedulerName()); err != nil {
		return fmt.Errorf("livestack: Scheduler: %w", err)
	}

	el := c.Elastic
	if el == nil {
		el = &elastic.Config{}
	}
	for _, k := range []struct {
		name string
		val  any
	}{
		{"PFS.OSTRate", c.PFS.OSTRate},
		{"Dispatchers", c.Dispatchers},
		{"ChunkSize", c.ChunkSize},
		{"PoolSize", c.PoolSize},
		{"RPC.CallTimeout", c.RPC.CallTimeout},
		{"RPC.MaxRetries", c.RPC.MaxRetries},
		{"RPC.BreakerThreshold", c.RPC.BreakerThreshold},
		{"RPC.BreakerCooldown", c.RPC.BreakerCooldown},
		{"HealthInterval", c.HealthInterval},
		{"HealthTimeout", c.HealthTimeout},
		{"HealthFailThreshold", c.HealthFailThreshold},
		{"HealthRiseThreshold", c.HealthRiseThreshold},
		{"SlowFactor", c.SlowFactor},
		{"SlowWindow", c.SlowWindow},
		{"SlowRecovery", c.SlowRecovery},
		{"QuarantineFloor", c.QuarantineFloor},
		{"QueueCap", c.QueueCap},
		{"MaxInflight", c.MaxInflight},
		{"RetryAfterHint", c.RetryAfterHint},
		{"Throttle.MinWindow", c.Throttle.MinWindow},
		{"Throttle.MaxWindow", c.Throttle.MaxWindow},
		{"DedupWindow", c.DedupWindow},
		{"OverloadQueueDepth", c.OverloadQueueDepth},
		{"OverloadShedDelta", c.OverloadShedDelta},
		{"OverloadThreshold", c.OverloadThreshold},
		{"OverloadRecovery", c.OverloadRecovery},
		{"Elastic.DownWatermark", el.DownWatermark},
		{"Elastic.UpCooldown", el.UpCooldown},
		{"Elastic.DownCooldown", el.DownCooldown},
	} {
		if v := reflect.ValueOf(k.val); v.CanInt() && v.Int() < 0 || v.CanFloat() && v.Float() < 0 {
			return fmt.Errorf("livestack: %s must not be negative, got %v", k.name, k.val)
		}
	}
	if c.RPC.WireChecksum {
		return fmt.Errorf("livestack: RPC.WireChecksum would checksum only the clients' requests: set WireChecksum, which turns trailers on for daemons, clients and the prober alike")
	}
	if c.Hedge.Pct < 0 || c.Hedge.Pct >= 1 {
		return fmt.Errorf("livestack: Hedge.Pct must be a quantile in [0,1), got %g", c.Hedge.Pct)
	}
	if c.Hedge.Budget < 0 || c.Hedge.Budget > 1 {
		return fmt.Errorf("livestack: Hedge.Budget must be a per-request token fraction in [0,1], got %g", c.Hedge.Budget)
	}

	probing := c.HealthInterval > 0
	bounded := c.QueueCap > 0 || c.MaxInflight > 0
	for _, r := range []struct {
		set   bool // the knob has a non-default value
		knob  string
		ok    bool // the switch that makes it live is on
		needs string
		why   string
	}{
		{c.RPC.BreakerCooldown > 0, "RPC.BreakerCooldown", c.RPC.BreakerThreshold > 0, "RPC.BreakerThreshold",
			"without a threshold no client gate ever opens for transport failures, so the cooldown never applies"},
		{c.HealthTimeout > 0, "HealthTimeout", probing, "HealthInterval",
			"without an interval no probe runs, so the ping deadline never applies"},
		{c.HealthFailThreshold > 0 || c.HealthRiseThreshold > 0, "HealthFailThreshold/HealthRiseThreshold", probing, "HealthInterval",
			"without an interval no probe runs, so nothing is debounced"},
		{c.RetryAfterHint > 0, "RetryAfterHint", bounded, "QueueCap or MaxInflight",
			"without bounded admission no busy response carries the hint"},
		{c.Throttle.MinWindow > 0 || c.Throttle.MaxWindow > 0, "Throttle.MinWindow/MaxWindow", c.Throttle.Enabled, "Throttle.Enabled",
			"without the throttle no window exists"},
		{c.OverloadQueueDepth > 0 || c.OverloadShedDelta > 0, "OverloadQueueDepth/OverloadShedDelta", probing, "HealthInterval",
			"overload is detected from the prober's load samples, so without probes it is blind"},
		{c.OverloadShedDelta > 0, "OverloadShedDelta", bounded, "a shed source (QueueCap or MaxInflight)",
			"an unbounded daemon never sheds, so the threshold would never trigger"},
		{c.OverloadThreshold > 0 || c.OverloadRecovery > 0, "OverloadThreshold/OverloadRecovery",
			c.OverloadQueueDepth > 0 || c.OverloadShedDelta > 0, "OverloadQueueDepth or OverloadShedDelta",
			"without a signal threshold no overload is ever detected, so nothing is debounced"},
		{c.SlowFactor > 0, "SlowFactor", probing, "HealthInterval",
			"the fail-slow scorer feeds on probe round-trips, so without probes it is blind"},
		{c.SlowWindow > 0 || c.SlowRecovery > 0, "SlowWindow/SlowRecovery", c.SlowFactor > 0, "SlowFactor",
			"without a slowness factor no scorer runs, so the debounce windows never apply"},
		{c.QuarantineFloor > 0, "QuarantineFloor", c.SlowFactor > 0, "SlowFactor",
			"without detection nothing is ever quarantined, so the floor never applies"},
		{c.Hedge.Enabled, "Hedge.Enabled", c.DedupWindow > 0, "DedupWindow",
			"only the dedup window makes a duplicated write exactly-once, so hedging without it could double-apply"},
		{c.Elastic != nil, "Elastic", probing, "HealthInterval",
			"the scaler feeds on the prober's queue-depth samples, so without probes it is blind"},
		{c.WrapProvisioner != nil, "WrapProvisioner", c.Elastic != nil, "Elastic",
			"without a scaler nothing is ever provisioned"},
	} {
		if r.set && !r.ok {
			return fmt.Errorf("livestack: %s requires %s: %s", r.knob, r.needs, r.why)
		}
	}

	if min, max := c.Throttle.MinWindow, c.Throttle.MaxWindow; min > 0 && max > 0 && min > max {
		return fmt.Errorf("livestack: Throttle.MinWindow (%d) must not exceed Throttle.MaxWindow (%d)", min, max)
	}
	if c.QueueCap > 0 && c.OverloadQueueDepth > c.QueueCap {
		return fmt.Errorf("livestack: OverloadQueueDepth (%d) exceeds QueueCap (%d): the queue sheds before it ever reaches that depth, so overload would never trigger",
			c.OverloadQueueDepth, c.QueueCap)
	}
	poolMin := c.IONs // the smallest pool this run can have
	if c.Elastic != nil {
		if err := c.Elastic.Validate(); err != nil {
			return fmt.Errorf("livestack: Elastic: %w", err)
		}
		if c.IONs < c.Elastic.Min || c.IONs > c.Elastic.Max {
			return fmt.Errorf("livestack: IONs (%d) must start inside Elastic.Min..Max (%d..%d): the scaler only grows on demand and never shrinks a pool the operator sized",
				c.IONs, c.Elastic.Min, c.Elastic.Max)
		}
		poolMin = c.Elastic.Min
	}
	if c.QuarantineFloor >= poolMin {
		return fmt.Errorf("livestack: QuarantineFloor (%d) must be below the pool minimum (%d): a floor the pool cannot dig below disables quarantine entirely",
			c.QuarantineFloor, poolMin)
	}
	return nil
}
