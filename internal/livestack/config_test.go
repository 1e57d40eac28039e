package livestack

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/health"
	"repro/internal/ion"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// scaler returns a valid elastic config around a 4-node pool, for rows
// that break one thing about it.
func scaler(mut func(*elastic.Config)) *elastic.Config {
	el := &elastic.Config{Min: 4, Max: 8, UpWatermark: 8, DownWatermark: 1}
	if mut != nil {
		mut(el)
	}
	return el
}

// TestValidateRejectsBadValues is the rule table: one broken rule per row
// on top of Config{IONs: 4}, and the error must name the field and be what
// Start returns, before any daemon starts. The rows came from gkfwd's flag
// validation (which owned most of these rules until Validate did), re-keyed
// to Config fields, plus a row per tuning field no flag ever exposed.
func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error
	}{
		{"zero ions", func(c *Config) { c.IONs = 0 }, "IONs"},
		{"negative ions", func(c *Config) { c.IONs = -3 }, "IONs"},
		{"unknown scheduler", func(c *Config) { c.Scheduler = "bogus" }, "Scheduler"},
		{"negative ost rate", func(c *Config) { c.PFS.OSTRate = -1 }, "PFS.OSTRate"},
		{"negative chunk size", func(c *Config) { c.ChunkSize = -4096 }, "ChunkSize"},
		{"negative dispatchers", func(c *Config) { c.Dispatchers = -1 }, "Dispatchers"},
		{"negative pool size", func(c *Config) { c.PoolSize = -1 }, "PoolSize"},
		{"negative call timeout", func(c *Config) { c.RPC.CallTimeout = -time.Second }, "RPC.CallTimeout"},
		{"negative breaker cooldown", func(c *Config) { c.RPC.BreakerCooldown = -1 }, "RPC.BreakerCooldown"},
		{"negative health interval", func(c *Config) { c.HealthInterval = -time.Millisecond }, "HealthInterval"},
		{"negative health timeout", func(c *Config) { c.HealthTimeout = -time.Millisecond }, "HealthTimeout"},
		{"negative retry after", func(c *Config) { c.RetryAfterHint = -time.Millisecond }, "RetryAfterHint"},
		{"negative rpc retries", func(c *Config) { c.RPC.MaxRetries = -1 }, "RPC.MaxRetries"},
		{"negative breaker threshold", func(c *Config) { c.RPC.BreakerThreshold = -1 }, "RPC.BreakerThreshold"},
		{"negative queue cap", func(c *Config) { c.QueueCap = -1 }, "QueueCap"},
		{"negative max inflight", func(c *Config) { c.MaxInflight = -1 }, "MaxInflight"},
		{"negative throttle min", func(c *Config) { c.Throttle.Enabled = true; c.Throttle.MinWindow = -1 }, "Throttle.MinWindow"},
		{"negative overload depth", func(c *Config) { c.OverloadQueueDepth = -1 }, "OverloadQueueDepth"},
		{"negative dedup window", func(c *Config) { c.DedupWindow = -1 }, "DedupWindow"},
		{"negative slow factor", func(c *Config) { c.SlowFactor = -2 }, "SlowFactor"},
		{"negative slow window", func(c *Config) { c.SlowWindow = -1 }, "SlowWindow"},
		{"negative quarantine floor", func(c *Config) { c.QuarantineFloor = -1 }, "QuarantineFloor"},
		{"negative health fail threshold", func(c *Config) { c.HealthFailThreshold = -1 }, "HealthFailThreshold"},
		{"negative overload recovery", func(c *Config) { c.OverloadRecovery = -1 }, "OverloadRecovery"},

		{"min above max", func(c *Config) { c.Throttle = fwd.ThrottleConfig{Enabled: true, MinWindow: 8, MaxWindow: 4} }, "Throttle.MinWindow (8) must not exceed"},
		{"throttle knobs without throttle", func(c *Config) { c.Throttle.MaxWindow = 16 }, "requires Throttle.Enabled"},
		{"overload without health", func(c *Config) { c.OverloadQueueDepth = 10 }, "OverloadQueueDepth/OverloadShedDelta requires HealthInterval"},
		{"breaker cooldown without threshold", func(c *Config) { c.RPC.BreakerCooldown = time.Second }, "requires RPC.BreakerThreshold"},
		{"health timeout without interval", func(c *Config) { c.HealthTimeout = time.Second }, "HealthTimeout requires HealthInterval"},
		{"retry after without admission bound", func(c *Config) { c.RetryAfterHint = time.Millisecond }, "requires QueueCap or MaxInflight"},
		{"overload depth beyond queue cap", func(c *Config) { c.HealthInterval = time.Second; c.QueueCap = 8; c.OverloadQueueDepth = 32 }, "exceeds QueueCap"},
		{"overload shed without shed source", func(c *Config) { c.HealthInterval = time.Second; c.OverloadShedDelta = 4 }, "shed source"},

		{"negative scale min", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.Min = -1 })
		}, "Elastic: elastic: Min"},
		{"negative scale max", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.Max = -1 })
		}, "Elastic: elastic: Max"},
		{"negative scale up", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.UpWatermark = -1 })
		}, "UpWatermark"},
		{"negative scale down", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.DownWatermark = -0.5 })
		}, "Elastic.DownWatermark must not be negative"},
		{"negative scale cooldown", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.UpCooldown = -time.Second })
		}, "Elastic.UpCooldown must not be negative"},
		{"scaler without health", func(c *Config) { c.Elastic = scaler(nil) }, "Elastic requires HealthInterval"},
		{"scaler without watermarks", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = &elastic.Config{Min: 4, Max: 8}
		}, "UpWatermark (0) must exceed DownWatermark (0)"},
		{"inverted watermarks", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.UpWatermark, el.DownWatermark = 1, 4 })
		}, "hysteresis band"},
		{"scale min above scale max", func(c *Config) {
			c.HealthInterval = time.Second
			c.Elastic = scaler(func(el *elastic.Config) { el.Min, el.Max = 6, 4 })
		}, "Max (4) must be at least Min (6)"},
		{"ions below scale min", func(c *Config) {
			c.HealthInterval = time.Second
			c.IONs = 2
			c.Elastic = scaler(func(el *elastic.Config) { el.Min = 3 })
		}, "IONs (2) must start inside Elastic.Min..Max (3..8)"},
		{"ions above scale max", func(c *Config) {
			c.HealthInterval = time.Second
			c.IONs = 10
			c.Elastic = scaler(nil)
		}, "IONs (10) must start inside Elastic.Min..Max (4..8)"},

		{"hedge pct not a quantile", func(c *Config) { c.DedupWindow = 16; c.Hedge = fwd.HedgeConfig{Enabled: true, Pct: 1.5} }, "Hedge.Pct"},
		{"negative hedge budget", func(c *Config) { c.DedupWindow = 16; c.Hedge = fwd.HedgeConfig{Enabled: true, Budget: -0.1} }, "Hedge.Budget"},
		{"hedge budget above one", func(c *Config) { c.DedupWindow = 16; c.Hedge = fwd.HedgeConfig{Enabled: true, Budget: 2} }, "Hedge.Budget"},
		{"hedge pct without dedup", func(c *Config) { c.Hedge = fwd.HedgeConfig{Enabled: true, Pct: 0.95} }, "Hedge.Enabled requires DedupWindow"},
		{"hedge budget without dedup", func(c *Config) { c.Hedge = fwd.HedgeConfig{Enabled: true, Budget: 0.2} }, "Hedge.Enabled requires DedupWindow"},
		{"slow factor without health", func(c *Config) { c.SlowFactor = 4 }, "SlowFactor requires HealthInterval"},
		{"slow window without factor", func(c *Config) { c.SlowWindow = 3 }, "SlowWindow/SlowRecovery requires SlowFactor"},
		{"quarantine floor without factor", func(c *Config) { c.QuarantineFloor = 1 }, "QuarantineFloor requires SlowFactor"},
		{"quarantine floor at pool minimum", func(c *Config) {
			c.HealthInterval = time.Second
			c.SlowFactor = 4
			c.QuarantineFloor = 4 // == IONs: nothing could ever be quarantined
		}, "below the pool minimum (4)"},
		{"quarantine floor at elastic pool minimum", func(c *Config) {
			c.HealthInterval = time.Second
			c.SlowFactor = 4
			c.Elastic = scaler(func(el *elastic.Config) { el.Min = 2 })
			c.QuarantineFloor = 2 // == Elastic.Min, the smallest pool this run can have
		}, "below the pool minimum (2)"},

		// Tuning fields no flag exposed: the same dead-knob rule.
		{"fail threshold without health", func(c *Config) { c.HealthFailThreshold = 3 }, "HealthFailThreshold/HealthRiseThreshold requires HealthInterval"},
		{"rise threshold without health", func(c *Config) { c.HealthRiseThreshold = 2 }, "HealthFailThreshold/HealthRiseThreshold requires HealthInterval"},
		{"slow recovery without factor", func(c *Config) { c.SlowRecovery = 5 }, "SlowWindow/SlowRecovery requires SlowFactor"},
		{"overload threshold without a signal", func(c *Config) { c.HealthInterval = time.Second; c.OverloadThreshold = 2 }, "OverloadThreshold/OverloadRecovery requires OverloadQueueDepth or OverloadShedDelta"},
		{"overload recovery without a signal", func(c *Config) { c.HealthInterval = time.Second; c.OverloadRecovery = 2 }, "OverloadThreshold/OverloadRecovery requires OverloadQueueDepth or OverloadShedDelta"},
		{"rpc checksum instead of the stack's", func(c *Config) { c.RPC.WireChecksum = true }, "RPC.WireChecksum would checksum only the clients' requests: set WireChecksum"},
		{"provisioner hook without scaler", func(c *Config) {
			c.WrapProvisioner = func(p elastic.Provisioner) elastic.Provisioner { return p }
		}, "WrapProvisioner requires Elastic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{IONs: 4}
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected an error mentioning %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, serr := Start(cfg); serr == nil || serr.Error() != err.Error() {
				t.Fatalf("Start = %v, want Validate's error %q", serr, err)
			}
		})
	}
}

// TestValidateAcceptsTheConfigsInUse holds Validate to configurations the
// repository runs outside the scenario kit: the bare stack, two stack-level
// tests' Configs and the shape bench/'s guarded workload arms. (Every
// scenario's stack is held to Validate where it is defined, by
// internal/scenario's TestScenarioStacksValidate.) A rule that rejects one
// of these is wrong, or the configuration is.
func TestValidateAcceptsTheConfigsInUse(t *testing.T) {
	listener := func(_ int, ln net.Listener) net.Listener { return ln }
	backend := func(_ int, b ion.Backend) ion.Backend { return b }
	gold := qos.NewRegistry()
	if err := gold.AddClass(qos.Class{Name: "gold", Tier: qos.TierGuaranteed, Rate: 1 << 40, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"bare": {IONs: 4},
		"blackout_test.go (journaled overload marks)": {
			IONs: 4, Scheduler: "FIFO", JournalDir: "wal",
			HealthInterval: 10 * time.Millisecond, HealthTimeout: 250 * time.Millisecond,
			HealthFailThreshold: 2, HealthRiseThreshold: 2,
			OverloadQueueDepth: 1 << 20, OverloadRecovery: 2,
		},
		"telemetry_test.go (every series family)": {
			IONs: 2, Scheduler: "FIFO", ChunkSize: 4096, WireChecksum: true, DedupWindow: 16,
			HealthInterval: 50 * time.Millisecond,
			Elastic:        &elastic.Config{Min: 2, Max: 2, UpWatermark: 1, DownWatermark: 0.5},
			JournalDir:     "wal", SlowFactor: 100, QuarantineFloor: 1,
			Hedge: fwd.HedgeConfig{Enabled: true},
		},
		"bench guardedConfig": {
			IONs: 4, WireChecksum: true, DedupWindow: 1024, JournalDir: "wal", QoS: gold,
			Throttle: fwd.ThrottleConfig{Enabled: true},
			Hedge:    fwd.HedgeConfig{Enabled: true, MinDelay: time.Second},
			Tracer:   telemetry.NewTracer(0),
			RPC:      rpc.Options{CallTimeout: 10 * time.Second, MaxRetries: 2, BreakerThreshold: 8},
			QueueCap: 1 << 16, MaxInflight: 1 << 16,
			HealthInterval: 50 * time.Millisecond, HealthTimeout: 2 * time.Second, HealthFailThreshold: 5,
			SlowFactor:   100,
			WrapListener: listener, WrapBackend: backend,
		},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQoSSchedulerDefaultHasOneOwner pins the resolved scheduler a stack
// reports: WFQ under a tenant policy (priorities are inert otherwise),
// AIOLI without one, and an explicit Scheduler always wins.
func TestQoSSchedulerDefaultHasOneOwner(t *testing.T) {
	tenants := qos.NewRegistry()
	if err := tenants.AddClass(qos.Class{Name: "gold", Tier: qos.TierGuaranteed, Rate: 1 << 30, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{IONs: 1}, "AIOLI"},
		{Config{IONs: 1, QoS: qos.NewRegistry()}, "AIOLI"}, // an empty registry is no policy
		{Config{IONs: 1, QoS: tenants}, "WFQ"},
		{Config{IONs: 1, QoS: tenants, Scheduler: "HBRR"}, "HBRR"},
	} {
		st, err := Start(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Scheduler(); got != tc.want {
			t.Errorf("Scheduler() = %q, want %q (Scheduler=%q, QoS empty=%v)", got, tc.want, tc.cfg.Scheduler, tc.cfg.QoS.Empty())
		}
		st.Close()
	}
}

// TestKnobCounts pins how many fields the configuration structs of the
// stack's layers have, 103 in all, the way TestArgvDefaults pins gkfwd's
// flags: a value only tests set is a constant (DESIGN.md §4, "Every knob
// has a caller"), so a new field is a new knob that needs a production
// caller — a command, a bench/ workload, an example, an experiment or the
// livestack wiring.
func TestKnobCounts(t *testing.T) {
	total := 0
	for _, k := range []struct {
		cfg  any
		want int
	}{
		{rpc.Options{}, 5}, {rpc.ServerLimits{}, 2}, {fwd.ThrottleConfig{}, 3}, {fwd.HedgeConfig{}, 4},
		{ion.Config{}, 11}, {health.Config{}, 14}, {elastic.Config{}, 22}, {pfs.Config{}, 6},
		{policy.MCKP{}, 0}, {Config{}, 36},
	} {
		total += k.want
		if typ := reflect.TypeOf(k.cfg); typ.NumField() != k.want {
			t.Errorf("%s has %d fields, want %d: a field needs a production caller (a command, a bench/ workload, an example, an experiment or the livestack wiring); a value only tests set is a constant (DESIGN.md §4)",
				typ, typ.NumField(), k.want)
		}
	}
	if total != 103 {
		t.Errorf("the pinned structs total %d fields, want 103", total)
	}
}
