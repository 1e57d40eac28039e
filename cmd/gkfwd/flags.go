// Flag plumbing for gkfwd: a thin binding. Every flag that configures the
// stack is registered with its destination inside a livestack.Config (the
// help text names the field), so there is no second struct to copy from
// and no second set of rules: Config.Validate — which livestack.Start runs
// before it builds anything — rejects what is negative, dead or
// inconsistent, and gkfwd reports that error as returned. What stays here
// is what is not stack configuration (what to run, where to serve
// telemetry), the five inputs a Config field is derived from, and the
// rules about flags that are not Config fields.
package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/elastic"
	"repro/internal/livestack"
	"repro/internal/perfmodel"
	"repro/internal/qos"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// runPlan is what the command line says beyond the stack's configuration.
type runPlan struct {
	apps        []app // -apps, resolved
	sweep       *app  // -sweep, resolved; nil = not a sweep
	queue       bool
	metricsAddr string

	// Inputs a Config field is derived from (see parseFlags).
	appList, sweepLabel  string
	ostMBps              float64
	scale                elastic.Config // -scale-*; Config.Elastic only when Max is set
	qosConfig, qosInline string
}

// app is one resolved Table 3 label: the kernel that issues its I/O and
// the perfmodel entry the arbiter and the scaler's advisor read.
type app struct {
	label  string
	kernel apps.Kernel
	spec   perfmodel.AppSpec
}

// bindFlags registers every gkfwd flag on fs.
func bindFlags(fs *flag.FlagSet, cfg *livestack.Config, r *runPlan) {
	fs.StringVar(&r.appList, "apps", "IOR-MPI,HACC", "comma-separated Table 3 labels to run concurrently")
	fs.StringVar(&r.sweepLabel, "sweep", "", "run one kernel at every feasible ION count instead")
	fs.BoolVar(&r.queue, "queue", false, "run the paper's §5.3 queue live (14 tiny-scale jobs)")
	fs.StringVar(&r.metricsAddr, "metrics-addr", "", "serve /metrics and /trace/recent on this address (e.g. :9090; empty = off); also sets Tracer")
	fs.Float64Var(&r.ostMBps, "ost-mbps", 0, "PFS.OSTRate: throttle each OST to this MB/s (0 = unthrottled)")

	fs.IntVar(&cfg.IONs, "ions", 4, "IONs: I/O-node daemons to start")
	fs.StringVar(&cfg.Scheduler, "scheduler", "", "Scheduler: FIFO|SJF|AIOLI|TWINS|HBRR|WFQ (default AIOLI; WFQ when QoS is configured)")
	fs.Int64Var(&cfg.ChunkSize, "chunk-size", 0, "ChunkSize: forwarding request-splitting unit in bytes (0 = default)")
	fs.DurationVar(&cfg.RPC.CallTimeout, "call-timeout", 0, "RPC.CallTimeout: per-RPC deadline (0 = block forever, the legacy behaviour)")
	fs.IntVar(&cfg.RPC.MaxRetries, "rpc-retries", 0, "RPC.MaxRetries: times the forwarding client re-sends a request that failed in transport, each after a jittered backoff")
	fs.IntVar(&cfg.RPC.BreakerThreshold, "breaker-threshold", 0, "RPC.BreakerThreshold: consecutive transport failures that open the client's per-node gate (0 = never)")
	fs.DurationVar(&cfg.RPC.BreakerCooldown, "breaker-cooldown", 0, "RPC.BreakerCooldown: how long the client's per-node gate stays open before a half-open probe (0 = default)")
	fs.DurationVar(&cfg.HealthInterval, "health-interval", 0, "HealthInterval: heartbeat probe interval, also the scaler's cadence; >0 enables health-driven re-arbitration")
	fs.DurationVar(&cfg.HealthTimeout, "health-timeout", 0, "HealthTimeout: per-ping deadline (0 = derived from the interval)")
	fs.IntVar(&cfg.QueueCap, "queue-cap", 0, "QueueCap: bound each daemon's request queue; above it requests get a busy response (0 = unbounded)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "MaxInflight: bound concurrently-handled requests per daemon (0 = unlimited)")
	fs.DurationVar(&cfg.RetryAfterHint, "retry-after", 0, "RetryAfterHint: retry-after hint carried on busy responses (0 = daemon default)")
	fs.BoolVar(&cfg.Throttle.Enabled, "throttle", false, "Throttle.Enabled: adaptive per-ION client throttling (AIMD window)")
	fs.IntVar(&cfg.Throttle.MinWindow, "throttle-min", 0, "Throttle.MinWindow: throttle window floor (0 = default)")
	fs.IntVar(&cfg.Throttle.MaxWindow, "throttle-max", 0, "Throttle.MaxWindow: throttle window ceiling (0 = default)")
	fs.IntVar(&cfg.OverloadQueueDepth, "overload-depth", 0, "OverloadQueueDepth: queue depth at which the prober calls an I/O node overloaded (0 = off)")
	fs.IntVar(&cfg.OverloadShedDelta, "overload-shed", 0, "OverloadShedDelta: sheds per probe sweep at which the prober calls an I/O node overloaded (0 = off)")
	fs.BoolVar(&cfg.WireChecksum, "wire-checksum", false, "WireChecksum: CRC32C trailers on every RPC frame, verified end to end")
	fs.IntVar(&cfg.DedupWindow, "dedup-window", 0, "DedupWindow: exactly-once writes; per-client outcomes each daemon retains for replay on transport retries (0 = off)")
	fs.Float64Var(&cfg.SlowFactor, "slow-factor", 0, "SlowFactor: quarantine an I/O node whose probe-RTT median exceeds its peers' × this factor, sustained (0 = off)")
	fs.IntVar(&cfg.SlowWindow, "slow-window", 0, "SlowWindow: consecutive slow probe sweeps before a node is marked degraded (0 = detector default)")
	fs.IntVar(&cfg.QuarantineFloor, "quarantine-floor", 0, "QuarantineFloor: allocatable I/O nodes the fail-slow quarantine may never dig below (0 = 1)")
	fs.Float64Var(&cfg.Hedge.Pct, "hedge-pct", 0, "Hedge.Pct: per-ION latency quantile in (0,1) used as the hedge deadline; this or -hedge-budget sets Hedge.Enabled")
	fs.Float64Var(&cfg.Hedge.Budget, "hedge-budget", 0, "Hedge.Budget: fraction of a hedge token each request earns, capping the steady-state hedge rate (0 = default 0.1 when hedging is on)")

	fs.IntVar(&r.scale.Max, "scale-max", 0, "Elastic.Max: pool ceiling; non-zero sets Elastic, i.e. enables autoscaling (0 = static pool)")
	fs.IntVar(&r.scale.Min, "scale-min", 0, "Elastic.Min: pool floor (0 = -ions)")
	fs.Float64Var(&r.scale.UpWatermark, "scale-up", 0, "Elastic.UpWatermark: average queue depth at or above which the pool grows (sustained)")
	fs.Float64Var(&r.scale.DownWatermark, "scale-down", 0, "Elastic.DownWatermark: average queue depth at or below which the pool shrinks (sustained)")
	fs.IntVar(&r.scale.UpCooldown, "scale-cooldown", 0, "Elastic.UpCooldown and DownCooldown: minimum gap, in probe sweeps, between same-direction scale events (0 = scaler defaults, 5 up and 30 down)")
	fs.StringVar(&r.qosConfig, "qos-config", "", "QoS: tenant policy file (class/app statements, see internal/qos)")
	fs.StringVar(&r.qosInline, "qos", "", "QoS: inline statements (';'-separated) applied after -qos-config")
}

// parseFlags turns a command line into the stack configuration and the
// run plan. It applies only the rules about flags that are not Config
// fields; the rest is cfg.Validate, which livestack.Start runs first.
func parseFlags(args []string) (livestack.Config, *runPlan, error) {
	var (
		cfg livestack.Config
		r   runPlan
		err error
	)
	fs := flag.NewFlagSet("gkfwd", flag.ContinueOnError)
	bindFlags(fs, &cfg, &r)
	if err = fs.Parse(args); err != nil {
		return cfg, nil, err // the flag set already printed it, with the usage
	}
	if r.queue && r.sweepLabel != "" {
		return cfg, nil, errors.New("-queue and -sweep are mutually exclusive")
	}
	// Labels are resolved before anything starts: a typo must not cost a
	// stack, nor leave the scaler's advisor built from the wrong app set.
	if r.apps, err = resolveApps(strings.Split(r.appList, ",")); err != nil {
		return cfg, nil, fmt.Errorf("-apps: %w", err)
	}
	if r.sweepLabel != "" {
		swept, err := resolveApps([]string{r.sweepLabel})
		if err != nil {
			return cfg, nil, fmt.Errorf("-sweep: %w", err)
		}
		r.sweep = &swept[0]
	}

	cfg.PFS.OSTRate = units.BandwidthFromMBps(r.ostMBps)
	cfg.Hedge.Enabled = cfg.Hedge.Pct != 0 || cfg.Hedge.Budget != 0
	if r.metricsAddr != "" {
		// Tracing is only worth its (small) cost when someone can look at
		// the traces, so it rides the metrics endpoint flag.
		cfg.Tracer = telemetry.NewTracer(0)
	}
	if r.qosConfig != "" {
		cfg.QoS, err = qos.ParseFile(r.qosConfig, r.qosInline)
	} else if r.qosInline != "" {
		cfg.QoS, err = qos.Parse(r.qosInline)
	}
	if err != nil {
		return cfg, nil, fmt.Errorf("-qos-config/-qos: %w", err)
	}
	if el := r.scale; el.Max != 0 {
		if el.Min == 0 {
			el.Min = cfg.IONs
		}
		el.DownCooldown = el.UpCooldown
		// The forecast seam: a scale-up whose predicted aggregate bandwidth
		// gain is zero is vetoed — capacity the running jobs' curves say
		// nobody can use is not worth provisioning.
		curves, err := r.curves()
		if err != nil {
			return cfg, nil, err
		}
		el.MarginalValue = marginalValueFor(curves)
		cfg.Elastic = &el
	} else if el.Min != 0 || el.UpWatermark != 0 || el.DownWatermark != 0 || el.UpCooldown != 0 {
		return cfg, nil, errors.New("-scale-min/-scale-up/-scale-down/-scale-cooldown require -scale-max: without a ceiling no scaler runs")
	}
	return cfg, &r, nil
}

// curves returns the bandwidth curves of the jobs the plan runs: the §5.3
// queue's under -queue, the swept kernel's under -sweep, the -apps list's
// otherwise.
func (r *runPlan) curves() ([]perfmodel.Curve, error) {
	var out []perfmodel.Curve
	if r.queue {
		q, err := livestack.PaperLiveQueue()
		for _, j := range q {
			out = append(out, j.App.Curve)
		}
		return out, err
	}
	running := r.apps
	if r.sweep != nil {
		running = []app{*r.sweep}
	}
	for _, a := range running {
		out = append(out, a.spec.Curve)
	}
	return out, nil
}

// resolveApps looks every label up in the kernel registry and the
// performance model.
func resolveApps(labels []string) ([]app, error) {
	out := make([]app, len(labels))
	for i, label := range labels {
		label = strings.TrimSpace(label)
		kernel, err := kernelFor(label)
		if err != nil {
			return nil, err
		}
		spec, err := perfmodel.AppByLabel(label)
		if err != nil {
			return nil, err
		}
		out[i] = app{label, kernel, spec}
	}
	return out, nil
}

func kernelFor(label string) (apps.Kernel, error) {
	k, ok := apps.Registry()[strings.TrimSpace(label)]
	if !ok {
		return nil, fmt.Errorf("unknown application %q", label)
	}
	return k, nil
}
