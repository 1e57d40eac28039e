package scenario

// Integrity campaign (`make torture`): a seeded nemesis — kills and warm
// restarts, wire corruption, delays, resets, mid-frame cuts — against a
// live 12-ION stack with checksums and exactly-once dedup on, while three
// ranks of one application write the Pattern (retrying until each segment
// lands) and read completed segments back. Every oracle must hold, and
// every campaign runs at least one kill → warm restart → rejoin.
// TestTortureAllDefences then turns every defence on at once.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/rpc"
)

// TestTorture runs the campaign from SCENARIO_SEED (default 1).
func TestTorture(t *testing.T) { torture(t, Seed(t, "torture", 1)) }

// TestTortureSecondSeed runs a second schedule, so one `go test` covers two
// interleavings; under a pinned SCENARIO_SEED it has nothing to add.
func TestTortureSecondSeed(t *testing.T) {
	if testing.Short() || os.Getenv(SeedEnv) != "" {
		t.Skip("one campaign is enough in short mode or under a pinned seed")
	}
	torture(t, Seed(t, "torture", 20260806))
}

func torture(t *testing.T, seed int64) {
	r, _ := start(t, "torture")
	// Ranks of one application: distinct dedup identities, one allocation —
	// several identical apps would leave the policy free to send one of
	// them straight to the PFS, silently exempt from the campaign.
	app := &App{ID: "torture", Label: "IOR-MPI", Writers: 3, Segments: 20, Size: 8 << 10, Ranks: true}
	r.Open(app)
	if len(app.Alloc) == 0 {
		t.Fatal("the arbiter allocated no I/O nodes")
	}
	run := r.Drive(Workload{Seed: seed, Retry: time.Minute, Pace: 50 * time.Millisecond, ReadBack: 4}, app)
	rep, err := r.Unleash(Nemesis{Seed: seed, Steps: 14, Mix: Mix{Kill: 25, Corrupt: 30, Delay: 15, Reset: 15, Cut: 15}}, run.Done)
	if err == nil && rep.Restarts == 0 { // liveness, whatever the dice said
		var kill *Report
		kill, err = r.Unleash(Nemesis{Seed: seed, Script: []Fault{Kill}}, nil)
		rep.Events, rep.Restarts = append(rep.Events, kill.Events...), kill.Restarts
	}
	if err != nil || rep.Restarts == 0 {
		t.Fatalf("%v (restarts: %d)\nschedule: %v", err, rep.Restarts, rep.Events)
	}
	run.Stop()
	r.Check(t, app)
	t.Logf("seed=%d restarts=%d flipped=%d crc_rejects=%d replays=%d schedule=%v", seed, rep.Restarts, rep.Flipped,
		r.Metric("rpc_checksum_errors_total"), r.Metric("ion_dedup_replays_total"), rep.Events)
}

// defencesQoS is the all-defences tenant policy: a guaranteed tenant and a
// scavenger squeezed through a small bucket.
const defencesQoS = `
class gold tier=guaranteed slo=2s rate=64MiB burst=1MiB weight=4
class scav tier=scavenger rate=512KiB burst=64KiB weight=0.25
app gold gold
app scav scav
`

// allDefences is the full policy stack: failover, backpressure + throttle,
// checksums + dedup, QoS classes, the elastic scaler, journal + fencing,
// fail-slow + hedging, all on. floor pins the pool at its minimum, one
// node above the QuarantineFloor, so a single lost or quarantined node
// puts live capacity on the floor.
func allDefences(floor bool) func(string) livestack.Config {
	return func(dir string) livestack.Config {
		el := &elastic.Config{
			Min: 4, Max: 6, UpWatermark: 0.5, DownWatermark: 0.1, UpSustain: 2, DownSustain: 3,
			UpCooldown: 100 * time.Millisecond, DownCooldown: 150 * time.Millisecond,
			DrainDeadline: 2 * time.Second, QuiesceSweeps: 3, RiseTimeout: 2 * time.Second,
			ProvisionBackoff: 25 * time.Millisecond, ProvisionBackoffMax: 100 * time.Millisecond,
			BreakerThreshold: 5, BreakerCooldown: 250 * time.Millisecond, Seed: 42,
		}
		cfg := probed(livestack.Config{
			IONs: 4, ChunkSize: 4096, Dispatchers: 1,
			RPC:      rpc.Options{CallTimeout: 500 * time.Millisecond, MaxRetries: 3, BreakerThreshold: 4, BreakerCooldown: 100 * time.Millisecond},
			QueueCap: 2, MaxInflight: 8, RetryAfterHint: 2 * time.Millisecond, Throttle: fwd.ThrottleConfig{Enabled: true},
			OverloadShedDelta: 4,
			WireChecksum:      true, DedupWindow: 1024,
			QoS:        tenants(defencesQoS),
			Elastic:    el,
			JournalDir: dir,
			SlowFactor: 8, SlowWindow: 3, SlowRecovery: 3, QuarantineFloor: 2,
			Hedge: fwd.HedgeConfig{Enabled: true, Pct: 0.9, Budget: 0.5},
		})
		if floor { // and a quarantine outlasts the next fault, so the floor is reached
			el.Max, cfg.QuarantineFloor, cfg.SlowRecovery = el.Min, el.Min-1, 25
		}
		return cfg
	}
}

// TestTortureAllDefences is the full-policy-stack stress (EXPERIMENTS.md):
// every defence on at once, over three rows — defences idle, a mixed
// nemesis, the mixed nemesis with the pool held at its quarantine floor.
// Every oracle must hold, and each row runs twice from one seed: same
// verdicts, same final PFS bytes.
func TestTortureAllDefences(t *testing.T) {
	seed := Seed(t, "torture", 1)
	// The mixed nemesis: every fault at least once — fail-slow and the
	// blackouts more — in an order the seed shuffles.
	mixed := []Fault{Kill, Corrupt, Delay, Reset, Cut, Slow, Slow, Slow, Blackout, BlackoutKill, Kill, Blackout}
	rand.New(rand.NewSource(seed)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	for _, row := range []struct {
		name, stack string
		script      []Fault
	}{
		{"idle", "all-defences", []Fault{}},
		{"nemesis", "all-defences", mixed},
		{"floor", "all-defences/floor", mixed},
	} {
		t.Run(row.name, func(t *testing.T) {
			var outcomes []string
			for i := 0; i < 2; i++ {
				t.Run(fmt.Sprint("run", i), func(t *testing.T) {
					outcomes = append(outcomes, allDefencesRun(t, row.stack, seed, Nemesis{Seed: seed, Script: row.script}))
				})
			}
			if len(outcomes) == 2 && outcomes[0] != outcomes[1] {
				t.Errorf("one seed, two outcomes:\n%s\n%s", outcomes[0], outcomes[1])
			}
		})
	}
}

// allDefencesRun runs one row and returns its outcome: every oracle's
// verdict and a digest of the bytes each app left on the PFS.
func allDefencesRun(t *testing.T, name string, seed int64, n Nemesis) string {
	r, flaky := start(t, name)
	flaky.FailCalls(2)
	// Slowed storage under eight writers: queues fill, so backpressure,
	// overload steering and the scaler have a demand signal to act on.
	r.setDelay(2 * time.Millisecond)
	apps := []*App{
		{ID: "gold", Label: "BT-C", Writers: 4, Segments: 16, Size: 8 << 10},
		{ID: "scav", Label: "IOR-MPI", Writers: 4, Segments: 16, Size: 8 << 10},
	}
	r.Open(apps...)
	// The writers rewrite until the whole schedule has run.
	run := r.Drive(Workload{Seed: seed, Rewrite: true, Retry: time.Minute, ReadBack: 4}, apps...)
	rep, err := r.Unleash(n, nil)
	if err != nil {
		t.Fatalf("%v\nschedule: %v", err, rep.Events)
	}
	run.Stop()
	var verdicts []string
	for _, v := range r.Audit(apps...) {
		if v.Err != nil {
			t.Errorf("%s oracle: %v", v.Oracle, v.Err)
		}
		verdicts = append(verdicts, fmt.Sprintf("%s=%v", v.Oracle, v.Err == nil))
	}
	digest := sha256.New()
	for _, a := range apps {
		file := make([]byte, a.Writers*a.Segments*a.Size)
		r.Store.Read(a.Path(), 0, file)
		digest.Write(file)
	}
	var seen []string
	for _, m := range []string{"fwd_failover_ops_total", "fwd_shed_responses_total", "fwd_hedge_launched_total", "fwd_replayed_writes_total",
		"qos_degraded_total", "rpc_checksum_errors_total", "ion_dedup_replays_total", "epoch_fence_rejections_total",
		"arbiter_marked_overloaded_total", "arbiter_quarantine_marked_total", "arbiter_quarantine_floor_held", "elastic_scale_ups_total",
		"elastic_provision_failures_total", "journal_replay_records_total"} {
		seen = append(seen, fmt.Sprintf("%s=%d", strings.TrimSuffix(m, "_total"), r.Metric(m)))
	}
	t.Logf("restarts=%d flipped=%d %s\nschedule: %v", rep.Restarts, rep.Flipped, strings.Join(seen, " "), rep.Events)
	return fmt.Sprintf("%v %x", verdicts, digest.Sum(nil))
}
