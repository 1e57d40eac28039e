package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/faultnet"
	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/qos"
	"repro/internal/rpc"
)

// fastFail makes transport failures fast and deterministic: with
// MaxRetries 1 a failed call is two attempts, each one failure at the
// node's gate, so threshold 2 opens the gate on the first call, and a dead
// node stays failed over.
var fastFail = rpc.Options{
	CallTimeout:      500 * time.Millisecond,
	MaxRetries:       1,
	BreakerThreshold: 2,
	BreakerCooldown:  30 * time.Second,
}

// probed adds the prober most scenarios share.
func probed(c livestack.Config) livestack.Config {
	c.HealthInterval, c.HealthTimeout = 20*time.Millisecond, 250*time.Millisecond
	c.HealthFailThreshold, c.HealthRiseThreshold = 3, 2
	return c
}

// tenants parses a QoS policy the scenarios spell out.
func tenants(policy string) *qos.Registry {
	reg, err := qos.Parse(policy)
	if err != nil {
		panic(err)
	}
	return reg
}

// noisyNeighborQoS is the tenant policy EXPERIMENTS.md documents for the
// noisy-neighbor scenario: a guaranteed tenant with a generous bucket, a
// CI-safe SLO and arbitration weight 4, against a scavenger squeezed
// through a 64 KiB burst at 256 KiB/s with weight 0.25.
const noisyNeighborQoS = `
class gold tier=guaranteed slo=750ms rate=64MiB burst=1MiB weight=4
class scav tier=scavenger rate=256KiB burst=64KiB weight=0.25
app gold gold
app scav scav
`

// stacks is every scenario's stack, by name; dir is the scenario's scratch
// directory (a journal's home).
var stacks = map[string]func(dir string) livestack.Config{
	"torture": func(string) livestack.Config {
		return probed(livestack.Config{
			IONs: 12, Scheduler: "FIFO", ChunkSize: 4 << 10,
			WireChecksum: true, DedupWindow: 256,
			RPC:      rpc.Options{CallTimeout: 250 * time.Millisecond, MaxRetries: 3, BreakerThreshold: 4, BreakerCooldown: 100 * time.Millisecond},
			QueueCap: 64, RetryAfterHint: 2 * time.Millisecond, Throttle: fwd.ThrottleConfig{Enabled: true},
		})
	},
	"chaos-kill": func(string) livestack.Config {
		return probed(livestack.Config{IONs: 12, Scheduler: "FIFO", ChunkSize: 4096, RPC: fastFail})
	},
	"chaos-hang": func(string) livestack.Config {
		return livestack.Config{IONs: 1, Scheduler: "FIFO", ChunkSize: 4096, RPC: rpc.Options{
			CallTimeout: 100 * time.Millisecond, MaxRetries: 1,
			BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond}}
	},
	"rejoin": func(string) livestack.Config {
		opts := fastFail
		opts.BreakerCooldown = 50 * time.Millisecond // let the breaker probe the revived node
		return probed(livestack.Config{IONs: 12, Scheduler: "FIFO", ChunkSize: 4096, RPC: opts,
			WireChecksum: true, DedupWindow: 128})
	},
	"storm": func(string) livestack.Config {
		return livestack.Config{
			IONs: 12, Scheduler: "FIFO", ChunkSize: 4096, Dispatchers: 1,
			// Hair-trigger breaker: a single shed misclassified as a
			// transport failure would open it and fail the scenario.
			RPC:      rpc.Options{CallTimeout: 2 * time.Second, MaxRetries: 1, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second},
			QueueCap: 2, MaxInflight: 24, RetryAfterHint: time.Millisecond,
			Throttle:       fwd.ThrottleConfig{Enabled: true, MinWindow: 1, MaxWindow: 8},
			HealthInterval: 10 * time.Millisecond, HealthTimeout: 250 * time.Millisecond,
			OverloadShedDelta: 1, OverloadThreshold: 1, OverloadRecovery: 5,
		}
	},
	"qos": func(string) livestack.Config {
		// Scheduler unset: the tenant policy selects WFQ.
		return livestack.Config{IONs: 12, ChunkSize: 4096, Dispatchers: 1, QoS: tenants(noisyNeighborQoS)}
	},
	"elastic": func(string) livestack.Config {
		return livestack.Config{
			IONs: 2, Scheduler: "FIFO", ChunkSize: 8192, Dispatchers: 1,
			// One request rides per pooled connection, so the pool must fit
			// the writer parallelism — otherwise demand queues invisibly on
			// the client side and the prober's depth samples (the scaler's
			// whole signal) read near zero however hard the burst pushes.
			PoolSize:       24,
			RPC:            rpc.Options{CallTimeout: 10 * time.Second, MaxRetries: 2, BreakerThreshold: 4, BreakerCooldown: 100 * time.Millisecond},
			HealthInterval: 10 * time.Millisecond, HealthTimeout: 250 * time.Millisecond,
			HealthFailThreshold: 2, HealthRiseThreshold: 2,
			// Every scaler window counts 10 ms probe sweeps.
			Elastic: &elastic.Config{
				Min: 2, Max: 12, UpWatermark: 1.0, DownWatermark: 0.2, UpSustain: 4, DownSustain: 10,
				UpCooldown: 10, DownCooldown: 15,
				// Each add re-arbitrates, and the remap stall starves the depth
				// signal for longer than DownSustain — the reversal gate keeps
				// the breath-out monotonic (see TestFlipQuietDampsReversal).
				FlipQuiet: 60, MaxStep: 2,
				// 12 sweeps × 10ms = 120ms of mandatory quiet per drain: wide
				// enough for the scenario to land its kill mid-drain.
				QuiesceSweeps: 12,
			},
		}
	},
	"blackout": func(dir string) livestack.Config {
		return probed(livestack.Config{IONs: 12, Scheduler: "FIFO", ChunkSize: 4096, RPC: fastFail, JournalDir: dir})
	},
	"grayfail": func(string) livestack.Config {
		return livestack.Config{
			IONs: 12, Scheduler: "FIFO", ChunkSize: 4096,
			// Generous deadlines: the gray node must stay *alive* — if the
			// per-call deadline turned slowness into failure, this would be
			// the fail-stop chaos scenario again.
			RPC:            rpc.Options{CallTimeout: 2 * time.Second, MaxRetries: 2, BreakerThreshold: 50, BreakerCooldown: 100 * time.Millisecond},
			HealthInterval: 20 * time.Millisecond, HealthTimeout: time.Second,
			HealthFailThreshold: 3, HealthRiseThreshold: 2,
			DedupWindow: 256,
			SlowFactor:  8, SlowWindow: 3, SlowRecovery: 3, QuarantineFloor: 4,
			Hedge: fwd.HedgeConfig{Enabled: true, Pct: 0.9, Budget: 0.5},
		}
	},
	"all-defences":       allDefences(false),
	"all-defences/floor": allDefences(true),
}

// stack returns the named scenario's Config as start runs it: a Flaky
// provisioning nemesis in front of its scaler, if it has one.
func stack(t *testing.T, name string) (livestack.Config, *Flaky) {
	t.Helper()
	mk := stacks[name]
	if mk == nil {
		t.Fatalf("no scenario stack %q", name)
	}
	cfg, flaky := mk(t.TempDir()), &Flaky{}
	if cfg.Elastic != nil {
		cfg.WrapProvisioner = flaky.Wrap
	}
	return cfg, flaky
}

// start starts the named scenario's stack (see stack).
func start(t *testing.T, name string) (*Rig, *Flaky) {
	t.Helper()
	cfg, flaky := stack(t, name)
	return Start(t, cfg), flaky
}

// TestScenarioStacksValidate holds Validate to the stacks the scenarios
// actually start — the one copy of each, so no stale duplicate can pass
// while the real one breaks.
func TestScenarioStacksValidate(t *testing.T) {
	for name := range stacks {
		cfg, _ := stack(t, name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestApplyCountOracleCatchesADoubleApply is the kit's own mutation check:
// a write the app issued once but an I/O node applied twice must fail the
// apply-count oracle, and nothing else.
func TestApplyCountOracleCatchesADoubleApply(t *testing.T) {
	r, _ := start(t, "rejoin")
	a := &App{ID: "twice", Label: "IOR-MPI", Writers: 1, Segments: 2, Size: 4096}
	r.Open(a)
	buf := make([]byte, a.Size)
	for s := 0; s < a.Segments; s++ {
		if _, err := a.Put(0, s, buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range r.Audit(a) {
		if v.Err != nil {
			t.Fatalf("clean run: %s oracle: %v", v.Oracle, v.Err)
		}
	}
	Fill(0, buf) // the right bytes, re-executed behind the app's back
	r.stores[0].Write(a.Path(), 0, buf)
	r.stores[0].Write(a.Path(), 0, buf)
	for _, v := range r.Audit(a) {
		if (v.Err != nil) != (v.Oracle == "apply count") {
			t.Errorf("%s oracle after a double apply: %v", v.Oracle, v.Err)
		}
	}
}

// net returns the fault injector live on the I/O node at addr.
func (r *Rig) net(addr string) *faultnet.Injector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nets[addr]
}

// store returns the instrumented backend of the I/O node at addr, on a
// stack that only ever ran its Start daemons.
func (r *Rig) store(addr string) *Backend {
	i := slices.Index(r.IONAddrs(), addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stores[i]
}

// setDelay makes every later write on every I/O node, present and future,
// and on the direct PFS path sleep d first.
func (r *Rig) setDelay(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.delay = d
	for _, b := range append(slices.Clone(r.stores), r.direct) {
		if b != nil {
			b.SetDelay(d)
		}
	}
}

// Metric sums the counters and gauges named name across their label sets;
// a name that carries labels reads that one series.
func (r *Rig) Metric(name string) (sum int64) {
	snap := r.Telemetry.Snapshot()
	for _, series := range []map[string]int64{snap.Counters, snap.Gauges} {
		for s, v := range series {
			if s == name || strings.HasPrefix(s, name+"{") {
				sum += v
			}
		}
	}
	return sum
}

// Want bounds one Metric: Min ≤ value ≤ Max.
type Want struct {
	Name     string
	Min, Max int64
}

// Exactly wants name at v.
func Exactly(name string, v int64) Want { return Want{name, v, v} }

// AtLeast wants name at v or above.
func AtLeast(name string, v int64) Want { return Want{name, v, math.MaxInt64} }

// Expect fails t unless every metric is inside its bounds.
func (r *Rig) Expect(t testing.TB, wants ...Want) {
	t.Helper()
	for _, w := range wants {
		if v := r.Metric(w.Name); v < w.Min || v > w.Max {
			t.Errorf("%s = %d, want [%d, %d]", w.Name, v, w.Min, w.Max)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// Await polls cond until it holds, and fails t after timeout. The message
// is formatted then, so a lazy argument shows the state the wait gave up on.
func Await(t testing.TB, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up after %v: "+format, append([]any{timeout}, args...)...)
		}
	}
}

// lazy renders as whatever its function returns when it is formatted.
type lazy func() any

func (l lazy) String() string { return fmt.Sprint(l()) }

// Latency returns the q-quantile of the app's acknowledged write
// latencies; q = 1 is the slowest.
func (a *App) Latency(q float64) time.Duration {
	a.mu.Lock()
	lat := slices.Clone(a.lat)
	a.mu.Unlock()
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return lat[min(int(float64(len(lat))*q), len(lat)-1)]
}
