package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// argvCase is one command line through parseFlags. Rows either must be
// refused (wantErr, a substring) or must parse; a parsed row may pin the
// whole Config it yields (want) and anything else about the result (check).
type argvCase struct {
	name    string
	argv    []string
	wantErr string
	want    *livestack.Config
	check   func(*testing.T, livestack.Config, *runPlan)
}

// args splits a command line that needs no quoting.
func args(line string) []string { return strings.Fields(line) }

// nonNilTracer stands for "-metrics-addr armed tracing" in want literals.
var nonNilTracer = telemetry.NewTracer(0)

func runArgv(t *testing.T, cases []argvCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, plan, err := parseFlags(tc.argv)
			if tc.wantErr != "" {
				if err == nil {
					// Not a flag-only rule: the stack's own rules get their say.
					err = cfg.Validate()
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("gkfwd %q: error %v, want one mentioning %q", tc.argv, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("gkfwd %q: %v", tc.argv, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("gkfwd %q parsed into a Config the stack refuses: %v", tc.argv, err)
			}
			if tc.want != nil {
				sameConfig(t, cfg, *tc.want)
			}
			if tc.check != nil {
				tc.check(t, cfg, plan)
			}
		})
	}
}

// sameConfig compares two stack configurations field by field; function
// and pointer fields (hooks, registries, the tracer, the scaler config)
// by nil-ness.
func sameConfig(t *testing.T, got, want livestack.Config) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name, gf, wf := g.Type().Field(i).Name, g.Field(i), w.Field(i)
		switch gf.Kind() {
		case reflect.Func, reflect.Pointer:
			if gf.IsNil() != wf.IsNil() {
				t.Errorf("%s: nil = %v, want nil = %v", name, gf.IsNil(), wf.IsNil())
			}
		default:
			if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
				t.Errorf("%s = %+v, want %+v", name, gf.Interface(), wf.Interface())
			}
		}
	}
}

// TestArgvRejected: the rules gkfwd keeps are about flags that are not
// Config fields; everything else is refused by Config.Validate in its own
// words (two rows show the hand-over, livestack's config_test has the
// rule table).
func TestArgvRejected(t *testing.T) {
	runArgv(t, []argvCase{
		{name: "queue and sweep", argv: args("-queue -sweep HACC"), wantErr: "mutually exclusive"},
		{name: "scale min without max", argv: args("-scale-min 2"), wantErr: "require -scale-max"},
		{name: "watermarks without max", argv: args("-scale-up 8"), wantErr: "require -scale-max"},
		{name: "scale cooldown without max", argv: args("-scale-cooldown 1s"), wantErr: "require -scale-max"},
		{name: "negative scale knob without max", argv: args("-scale-down -0.5"), wantErr: "require -scale-max"},
		{name: "qos inline syntax error", argv: []string{"-qos", "class gold tier=bogus"}, wantErr: "-qos-config/-qos"},
		{name: "qos unknown class reference", argv: []string{"-qos", "app a missing"}, wantErr: "-qos-config/-qos"},
		{name: "qos missing file", argv: args("-qos-config /nonexistent/qos.conf"), wantErr: "-qos-config/-qos"},
		{name: "unknown app label", argv: args("-apps IOR-MPI,HAC"), wantErr: `-apps: unknown application "HAC"`},
		{name: "unknown sweep label", argv: args("-sweep HAC"), wantErr: `-sweep: unknown application "HAC"`},
		{name: "unknown flag", argv: args("-no-such-flag"), wantErr: "flag provided but not defined"},
		{name: "removed flag -max-conns", argv: args("-max-conns 8"), wantErr: "flag provided but not defined"},
		{name: "removed flag -coalesce-limit", argv: args("-coalesce-limit 1024"), wantErr: "flag provided but not defined"},
		{name: "removed flag -journal-snapshot-every", argv: args("-journal-snapshot-every 64"), wantErr: "flag provided but not defined"},

		{name: "Validate: dead knob", argv: args("-overload-depth 32"), wantErr: "OverloadQueueDepth/OverloadShedDelta requires HealthInterval"},
		{name: "Validate: negative", argv: args("-call-timeout=-1s"), wantErr: "RPC.CallTimeout must not be negative"},
		{name: "Validate: unknown scheduler", argv: args("-scheduler bogus"), wantErr: "Scheduler"},
		{name: "Validate: negative ost rate", argv: args("-ost-mbps -1"), wantErr: "PFS.OSTRate must not be negative"},
		{name: "Validate: negative hedge pct still arms the hedge", argv: args("-dedup-window 16 -hedge-pct -0.5"), wantErr: "Hedge.Pct"},
		{name: "Validate: scaler bounds are elastic's", argv: args("-health-interval 1s -scale-max 2 -scale-up 8 -scale-down 1"), wantErr: "Max (2) must be at least Min (4)"},
		{name: "Validate: pool sized outside the scaler's range", argv: args("-health-interval 1s -scale-min 1 -scale-max 2 -scale-up 8 -scale-down 1"), wantErr: "IONs (4) must start inside Elastic.Min..Max (1..2)"},
	})
}

// TestArgvDefaults: no flags is Config{IONs: 4} — every opt-in at its zero
// value — running IOR-MPI and HACC; the three removed knobs took the flag
// count from 40 to 37.
func TestArgvDefaults(t *testing.T) {
	runArgv(t, []argvCase{
		{name: "no flags", argv: nil, want: &livestack.Config{IONs: 4},
			check: func(t *testing.T, _ livestack.Config, plan *runPlan) {
				if len(plan.apps) != 2 || plan.apps[0].label != "IOR-MPI" || plan.apps[1].label != "HACC" || plan.sweep != nil || plan.queue {
					t.Errorf("default plan = %+v, want IOR-MPI and HACC run concurrently", plan)
				}
			}},
		{name: "-queue", argv: args("-ions 12 -queue"), want: &livestack.Config{IONs: 12},
			check: func(t *testing.T, _ livestack.Config, plan *runPlan) {
				if !plan.queue {
					t.Error("-queue not carried into the plan")
				}
			}},
		{name: "-sweep", argv: args("-sweep HACC"), want: &livestack.Config{IONs: 4},
			check: func(t *testing.T, _ livestack.Config, plan *runPlan) {
				if plan.sweep == nil || plan.sweep.kernel.Name() != "HACC" {
					t.Errorf("sweep = %+v, want the HACC kernel", plan.sweep)
				}
			}},
		{name: "-ost-mbps", argv: args("-ost-mbps 100"), check: func(t *testing.T, cfg livestack.Config, _ *runPlan) {
			if cfg.PFS.OSTRate != units.BandwidthFromMBps(100) {
				t.Errorf("PFS.OSTRate = %v, want 100 MB/s", cfg.PFS.OSTRate)
			}
		}},
		{name: "-metrics-addr", argv: args("-metrics-addr :0"), check: func(t *testing.T, cfg livestack.Config, plan *runPlan) {
			if cfg.Tracer == nil || plan.metricsAddr != ":0" {
				t.Errorf("Tracer = %v, metricsAddr = %q: the endpoint flag must arm tracing", cfg.Tracer, plan.metricsAddr)
			}
		}},
	})
	var (
		cfg livestack.Config
		r   runPlan
		n   int
	)
	fs := flag.NewFlagSet("gkfwd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs, &cfg, &r)
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 37 {
		t.Errorf("gkfwd registers %d flags, want 37", n)
	}
}

// The recipe tests below hold each argv the verify skill and the README
// drive to the Config the pre-binding gkfwd assembled for it (its
// stackConfig copied flag by flag; Policy was spelled MCKP{} there and is
// left nil — the same default — here).

func TestArgvFailureToleranceRecipe(t *testing.T) {
	runArgv(t, []argvCase{{
		name: "breaker + deadlines + prober",
		argv: args("-call-timeout 2s -rpc-retries 1 -breaker-threshold 2 -breaker-cooldown 1s -health-interval 50ms -health-timeout 1s -metrics-addr :9090"),
		want: &livestack.Config{
			IONs:           4,
			RPC:            rpc.Options{CallTimeout: 2 * time.Second, MaxRetries: 1, BreakerThreshold: 2, BreakerCooldown: time.Second},
			HealthInterval: 50 * time.Millisecond, HealthTimeout: time.Second,
			Tracer: nonNilTracer,
		},
	}})
}

func TestArgvOverloadThrottleRecipe(t *testing.T) {
	runArgv(t, []argvCase{{
		name: "storm recipe plus -overload-depth and -chunk-size",
		argv: args("-ions 4 -apps IOR-MPI,BT-C -queue-cap 8 -max-inflight 16 -retry-after 1ms -throttle -throttle-min 1 -throttle-max 8 -health-interval 50ms -health-timeout 1s -overload-shed 1 -overload-depth 8 -chunk-size 65536 -metrics-addr :9090"),
		want: &livestack.Config{
			IONs: 4, ChunkSize: 1 << 16,
			QueueCap: 8, MaxInflight: 16, RetryAfterHint: time.Millisecond,
			Throttle:       fwd.ThrottleConfig{Enabled: true, MinWindow: 1, MaxWindow: 8},
			HealthInterval: 50 * time.Millisecond, HealthTimeout: time.Second,
			OverloadShedDelta: 1, OverloadQueueDepth: 8,
			Tracer: nonNilTracer,
		},
	}})
}

func TestArgvGrayFailureHedgeRecipe(t *testing.T) {
	runArgv(t, []argvCase{
		{
			name: "gray-failure recipe plus -wire-checksum",
			argv: args("-ions 4 -apps IOR-MPI,BT-C -slow-factor 8 -slow-window 3 -health-interval 100ms -health-timeout 1s -quarantine-floor 2 -dedup-window 256 -hedge-pct 0.95 -hedge-budget 0.5 -wire-checksum -metrics-addr :9090"),
			want: &livestack.Config{
				IONs:           4,
				HealthInterval: 100 * time.Millisecond, HealthTimeout: time.Second,
				SlowFactor: 8, SlowWindow: 3, QuarantineFloor: 2,
				WireChecksum: true, DedupWindow: 256,
				Hedge:  fwd.HedgeConfig{Enabled: true, Pct: 0.95, Budget: 0.5},
				Tracer: nonNilTracer,
			},
		},
		{
			// The quantile takes its default inside fwd.
			name: "budget-only hedge",
			argv: args("-dedup-window 64 -hedge-budget 0.5"),
			want: &livestack.Config{IONs: 4, DedupWindow: 64, Hedge: fwd.HedgeConfig{Enabled: true, Budget: 0.5}},
		},
	})
}

func TestArgvJournalRecipe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	runArgv(t, []argvCase{{
		name: "journal",
		argv: []string{"-journal-dir", dir, "-health-interval", "50ms"},
		want: &livestack.Config{IONs: 4, JournalDir: dir, HealthInterval: 50 * time.Millisecond},
	}})
}

func TestArgvScalerDerivesElastic(t *testing.T) {
	runArgv(t, []argvCase{
		{
			name: "floor defaults to -ions",
			argv: args("-health-interval 100ms -scale-max 12 -scale-up 8 -scale-down 1 -scale-cooldown 30s"),
			check: func(t *testing.T, cfg livestack.Config, _ *runPlan) {
				el := cfg.Elastic
				if el == nil {
					t.Fatal("-scale-max did not enable the elastic scaler")
				}
				if el.Min != 4 || el.Max != 12 || el.UpWatermark != 8 || el.DownWatermark != 1 {
					t.Errorf("Elastic = %+v, want Min 4 (the -ions default) Max 12 watermarks 8/1", el)
				}
				if el.UpCooldown != 30*time.Second || el.DownCooldown != 30*time.Second {
					t.Errorf("-scale-cooldown not carried to both directions: %v / %v", el.UpCooldown, el.DownCooldown)
				}
				if el.MarginalValue == nil {
					t.Fatal("scaler config has no perfmodel forecast")
				}
				if v := el.MarginalValue(2); v <= 0 {
					t.Errorf("forecast at k=2 = %g, want > 0 (IOR-MPI and HACC still climb)", v)
				}
				if cfg.WrapProvisioner != nil {
					t.Error("gkfwd must not interpose on the provisioner")
				}
			},
		},
		{
			name: "an explicit floor wins",
			argv: args("-health-interval 100ms -scale-max 12 -scale-min 2 -scale-up 8 -scale-down 1"),
			check: func(t *testing.T, cfg livestack.Config, _ *runPlan) {
				if cfg.Elastic == nil || cfg.Elastic.Min != 2 {
					t.Errorf("Elastic = %+v, want Min 2", cfg.Elastic)
				}
			},
		},
	})
}

func TestArgvQoSBuildsTheRegistry(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "qos.conf")
	if err := os.WriteFile(conf, []byte("class gold tier=guaranteed rate=64MiB weight=4\napp ior gold\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	inline := "class scav tier=scavenger rate=1MiB; app bg scav"
	cfg, _, err := parseFlags([]string{"-ions", "1", "-qos-config", conf, "-qos", inline})
	if err != nil {
		t.Fatal(err)
	}
	if c := cfg.QoS.ClassFor("ior"); c == nil || c.Name != "gold" {
		t.Fatalf("file-declared class not resolvable: %+v", c)
	}
	if c := cfg.QoS.ClassFor("bg"); c == nil || c.Name != "scav" {
		t.Fatalf("inline override class not resolvable: %+v", c)
	}
	// The banner prints what the stack resolved, not a copy of the rule.
	for argvSched, want := range map[string]string{"": "WFQ", "FIFO": "FIFO"} {
		cfg, _, err := parseFlags([]string{"-ions", "1", "-qos", inline, "-scheduler", argvSched})
		if err != nil {
			t.Fatal(err)
		}
		st, err := livestack.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Scheduler(); got != want {
			t.Errorf("-scheduler %q under a QoS policy runs %q, want %q", argvSched, got, want)
		}
		st.Close()
	}
}

// TestMarginalAdvisor pins the forecast the scaler consults: positive
// while the apps' curves still climb, zero past every measured peak (the
// scaler reads that as "growth not worth provisioning").
func TestMarginalAdvisor(t *testing.T) {
	running, err := resolveApps([]string{"IOR-MPI", " HACC "})
	if err != nil {
		t.Fatal(err)
	}
	mv := marginalValueFor(running)
	if v := mv(2); v <= 0 {
		t.Fatalf("marginal value at k=2 = %g, want > 0 (both curves still climb)", v)
	}
	if v := mv(16); v != 0 {
		t.Fatalf("marginal value at k=16 = %g, want 0 (past every measured point)", v)
	}
	if mv := marginalValueFor(nil); mv(2) != 0 {
		t.Fatal("no apps must forecast zero, not panic")
	}
}
