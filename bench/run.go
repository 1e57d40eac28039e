package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec mirrors one BENCHMARK.json metric entry.
type metricSpec struct {
	name, unit, better string
	bound              float64
	// exact marks metrics that are a pure function of the seed: two runs
	// of one commit must agree bit for bit (see -agree).
	exact bool
}

// endToEnd is what a user of the stack sees. Every workload reports every
// one of them: "op" is the workload's unit of work — a 4 MiB request on
// stream_*, a 4 KiB or metadata request on small_*, one arbitration
// decision (arbiter call until every client applied the new mapping) on
// arbiter_churn.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "alloc_efficiency", unit: "ratio", better: "higher", bound: 0.10, exact: true},
	{name: "max_dilation", unit: "ratio", better: "lower", bound: 0.05, exact: true},
}

const (
	warmUp = 300 * time.Millisecond // per stack, discarded
	// rateTrim is the share of an epoch's ops, the slowest ones, that
	// ops_per_s leaves out. This VM shares its cores: when another tenant
	// runs, one op in a hundred waits 2–4 ms for a core (p99 ×10, while the
	// p90 does not move), and a rate over every op then measures that
	// tenant (−36 % on small_mixed under 35 % steal; +4 % with the trim).
	// The tail the trim hides from ops_per_s is in the report
	// (epoch_p99_us) and in the traced run's op.tail_us.
	rateTrim   = 0.02
	opDecision = "arbiter.decision"
	// A traced run spends this share of -seconds alternating untraced
	// and traced passes; the ledger runs afterwards.
	sideBySideShare = 0.5
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything else worth knowing about a run; it precedes the
// contract line on standard output.
type report struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Trace      bool           `json:"trace"`
	State      string         `json:"state"`
	Env        environment    `json:"environment"`
	Samples    map[string]any `json:"samples,omitempty"`
	Unmeasured []string       `json:"unmeasured_layers,omitempty"`
	Failures   []string       `json:"failures,omitempty"`
	Warnings   []string       `json:"warnings,omitempty"`
}

type runParams struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

func (p runParams) dur(share float64) time.Duration {
	return time.Duration(p.seconds * share * float64(time.Second))
}

// runWorkload executes one (workload, seed, trace) run.
func runWorkload(w workloadSpec, p runParams) (*result, *report, error) {
	rep := &report{
		Workload: w.name, Why: w.why, Trace: p.trace, State: "loopback",
		Env: readEnvironment(w, p), Samples: map[string]any{},
	}
	if rep.Env.GOMAXPROCS < 2 {
		rep.Warnings = append(rep.Warnings, "GOMAXPROCS < 2: the generator and the stack's daemons share one core; numbers are not comparable with a two-core run")
	}
	chk := &checks{}
	var values map[string]float64
	var err error
	switch {
	case !p.trace:
		values, err = runEndToEnd(w, p, chk, rep)
	case w.dataPlane():
		values, err = dataTraced(w, p, chk, rep)
	default:
		values, err = churnTraced(w, p, chk, rep)
	}
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	rep.Failures = chk.msgs
	if p.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		}
	}
	return res, rep, nil
}

// bed is one running stack with its generator attached: what a set-up
// produces and an epoch measures.
type bed struct {
	s       stepper
	granted int          // I/O nodes the set-up decision granted (data plane)
	check   func() error // end-of-epoch output checks; an error aborts the run
	close   func()
}

// startBed sets a workload up for an untraced epoch. drv is the
// data-plane generator (reused across epochs: its presize rewinds it).
func startBed(w workloadSpec, drv dataDriver, seed uint64, chk *checks) (*bed, error) {
	if w.dataPlane() {
		env, err := startDataPlane(w, drv, nil)
		if err != nil {
			return nil, err
		}
		return &bed{s: drv, granted: env.granted, close: env.close, check: func() error {
			checkDataPlane(w, env, drv, chk)
			return nil
		}}, nil
	}
	// No journal under the timed decisions: an fsync on a shared virtual
	// disk swings between 0.15 and 2 ms with the host's other tenants and
	// would be all this workload measures. The journaled path is timed in
	// the traced run and the ledger, and drilled once per run (recoveryDrill).
	env, err := startChurn(false, nil)
	if err != nil {
		return nil, err
	}
	d := &churnDriver{env: env, chk: chk, gen: newChurnGen(seed)}
	return &bed{s: d, close: env.close, check: func() error {
		checkFollowers(env, chk)
		return d.err
	}}, nil
}

// runEndToEnd measures a workload with tracing off. The window is split
// over w.epochs freshly set-up stacks: each epoch is timed set-up, warm-up,
// then its share of -seconds. Throughput and the latency percentiles are
// taken per epoch and the median epoch is reported, so a disturbed second
// moves one epoch, not the run. An epoch's throughput is its ops ÷ the
// time spent inside them, the slowest rateTrim of the ops left out (see
// rateTrim) — a mean over many ops, not a median of passes, because on the
// stream workloads single passes are bimodal (with or without a garbage
// collection) and a median of passes would flip between the modes.
func runEndToEnd(w workloadSpec, p runParams, chk *checks, rep *report) (map[string]float64, error) {
	var drv dataDriver
	if w.dataPlane() {
		drv = newDataDriver(w, p.seed, chk)
	}
	var setups, passes, rates, p50s, p90s, p99s, steals []float64
	var total window
	beyond99, granted, discarded := 0, 0, 0
	gate := newStealGate()
	gate.wait()
	for len(rates) < w.epochs {
		t0 := time.Now()
		b, err := startBed(w, drv, p.seed, chk)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		measure(b.s, len(w.kinds), w.passOps, warmUp)
		c0 := gate.read()
		win := measure(b.s, len(w.kinds), w.passOps, p.dur(1/float64(w.epochs)))
		steal := gate.read().stealSince(c0)
		err = b.check()
		granted = b.granted
		b.close()
		freeMemory()
		if err != nil {
			return nil, err
		}
		// An epoch the hypervisor took a large share of is not a
		// measurement of the program: wait for the other tenants to
		// finish and measure it again, while the run's waiting budget lasts.
		if gate.heavy(steal) {
			discarded++
			gate.spend(time.Since(t0))
			gate.wait()
			continue
		}
		setups = append(setups, setup)
		all := win.allLatencies()
		lat := summarize(all)
		p50s, p90s, p99s = append(p50s, lat.Med), append(p90s, lat.P90), append(p99s, lat.P99)
		beyond99 += beyond(lat.N, 0.99)
		passes = append(passes, win.passes...)
		rates = append(rates, trimmedRate(all, rateTrim))
		steals = append(steals, steal)
		total.ops += win.ops
		total.wall += win.wall
		total.cpu += win.cpu
		total.mallocs += win.mallocs
	}
	if beyond99 < minBeyond {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("the p99 in the report rests on %d samples beyond it, fewer than %d", beyond99, minBeyond))
	}
	if st := median(steals); st > stealHeavy {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("the hypervisor withheld %.0f %% of the CPU time this machine asked for during the median epoch, and the waiting budget ran out: the host's other tenants are in these numbers", st*100))
	}
	// Policy quality: the one set-up decision on the data-plane workloads
	// (1 when the expected allocation was granted, which the checks above
	// require), the seeded job sequence on arbiter_churn.
	quality := curveQuality(peakedApp(appID, w.peak), granted)
	if !w.dataPlane() {
		var err error
		if quality, err = churnQuality(p.seed, chk); err != nil {
			return nil, err
		}
		if err := recoveryDrill(p.seed, chk); err != nil {
			return nil, err
		}
	}
	ps := summarize(passes)
	rep.Samples["ops"] = total.ops
	rep.Samples["window_s"] = total.wall.Seconds()
	rep.Samples["passes"] = map[string]any{"n": ps.N, "q1": ps.Q1, "median": ps.Med, "q3": ps.Q3}
	rep.Samples["epoch_ops_per_s"] = rates
	rep.Samples["epoch_p50_us"] = p50s
	rep.Samples["epoch_p90_us"] = p90s
	rep.Samples["epoch_p99_us"] = p99s
	rep.Samples["epoch_steal_share"] = steals
	rep.Samples["epochs_discarded"] = discarded
	rep.Samples["waited_s"] = gate.waited.Seconds()
	rep.Samples["p99_samples_beyond"] = beyond99
	rep.Samples["setup_s"] = setups
	rep.Samples["quality_decisions"] = quality.n
	ops := float64(total.ops)
	return map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(rates),
		"op_p50_us":        median(p50s),
		"op_p90_us":        median(p90s),
		"cpu_us_per_op":    float64(total.cpu) / 1e3 / ops,
		"allocs_per_op":    float64(total.mallocs) / ops,
		"peak_rss_mb":      peakRSSMB(),
		"alloc_efficiency": quality.efficiency(),
		"max_dilation":     quality.maxDilation,
	}, nil
}

// perKind fills the per-kind latency rows of a traced run.
func perKind(values map[string]float64, w workloadSpec, win window) {
	reqBytes := float64(streamReq)
	if w.small {
		reqBytes = smallReq
	}
	for k, name := range w.kinds {
		s := summarize(append([]float64(nil), win.lat[k]...))
		values["op."+name+"_p50_us"] = s.Med
		if w.dataPlane() && name != "meta" && s.Med > 0 {
			values["op."+name+"_mbps"] = reqBytes / s.Med // bytes per µs = MB/s
		}
	}
	all := summarize(win.allLatencies())
	values["op.tail_pct"] = all.TailPct * 100
	values["op.tail_us"] = all.Tail
	values["process.alloc_kb_per_op"] = float64(win.allocBytes) / 1024 / float64(win.ops)
}

// finishTraced records the tracing overhead, dumps spans when asked, and
// appends the ledger.
func finishTraced(values map[string]float64, p runParams, rep *report, spans []span, plain, traced *meter) error {
	// Median against median: pass throughput carries the tail, and on
	// stream_one the tail is garbage-collection storms of tens of ms that
	// land on either lane at random.
	values["trace.overhead_pct"] = (median(traced.w.allLatencies())/median(plain.w.allLatencies()) - 1) * 100
	rep.Samples["traced_ops"] = traced.w.ops
	rep.Samples["untraced_ops"] = plain.w.ops
	rep.Samples["spans"] = len(spans)
	if p.traceOut != "" {
		if err := dumpSpans(p.traceOut, spans); err != nil {
			return err
		}
	}
	freeMemory()
	l, err := runLedger(p.seed)
	if err != nil {
		return err
	}
	for k, v := range l.v {
		values[k] = v
	}
	rep.Unmeasured = l.unmeasured
	return nil
}

// dataTraced runs the workload on two stacks side by side — one bare, one
// with the bench/ wrappers on the daemon seams — alternating passes.
func dataTraced(w workloadSpec, p runParams, chk *checks, rep *report) (map[string]float64, error) {
	plainDrv, tracedDrv := newDataDriver(w, p.seed, chk), newDataDriver(w, p.seed, chk)
	plainEnv, err := startDataPlane(w, plainDrv, nil)
	if err != nil {
		return nil, err
	}
	defer plainEnv.close()
	rec := newRecorder()
	env, err := startDataPlane(w, tracedDrv, rec)
	if err != nil {
		return nil, err
	}
	defer env.close()
	measure(plainDrv, len(w.kinds), w.passOps, warmUp)
	measure(tracedDrv, len(w.kinds), w.passOps, warmUp)

	plain, traced := newMeter(plainDrv, len(w.kinds), w.passOps), newMeter(tracedDrv, len(w.kinds), w.passOps)
	traced.rec, traced.sh, traced.opName = rec, rec.newShard(), spanOp
	before, wire0 := collectDataCounts(env), rec.wireBytes.Load()
	measureSideBySide(plain, traced, p.dur(sideBySideShare))
	wire := rec.wireBytes.Load() - wire0
	conns := rec.connsOpened.Load()
	checkDataPlane(w, plainEnv, plainDrv, chk)
	after := checkDataPlane(w, env, tracedDrv, chk)

	spans := rec.all()
	bd := breakDown(spans, spanOp)
	ops := float64(traced.w.ops)
	payload := float64(after.fwd.BytesOut-before.fwd.BytesOut) + float64(after.fwd.BytesIn-before.fwd.BytesIn)
	values := map[string]float64{
		"trace.op_us":               bd.opUS,
		"trace.fwd_rpc_self_us":     bd.fwdRPCUS,
		"trace.ion_agios_self_us":   bd.ionAgiosUS,
		"trace.pfs_us":              bd.pfsUS,
		"trace.wire_reqs_per_op":    float64(bd.wireReqs) / ops,
		"trace.pfs_calls_per_op":    float64(bd.pfsCalls) / ops,
		"trace.wire_bytes_per_byte": float64(wire) / payload,
		"trace.conns_opened":        float64(conns),
		"fwd.forwarded_per_op":      float64(after.fwd.ForwardedOps-before.fwd.ForwardedOps) / ops,
		"fwd.direct_ops":            float64(after.fwd.DirectOps),
		"fwd.failover_ops":          float64(after.fwd.FailoverOps),
		"fwd.degraded_ops":          float64(after.fwd.DegradedOps),
		"fwd.replayed_writes":       float64(after.fwd.ReplayedWrites),
		"ion.dispatches_per_op":     float64(after.ion.Dispatches-before.ion.Dispatches) / ops,
		"ion.aggregated":            float64(after.ion.Aggregated),
		"ion.queue_rejects":         float64(after.ion.QueueRejects),
		"ion.dedup_replays":         float64(after.ion.DedupReplays),
		"pfs.seeks":                 float64(after.seeks),
		"pfs.lock_waits":            float64(after.locks),
	}
	perKind(values, w, plain.w)
	return values, finishTraced(values, p, rep, spans, plain, traced)
}

func churnTraced(w workloadSpec, p runParams, chk *checks, rep *report) (map[string]float64, error) {
	plainEnv, err := startChurn(true, nil)
	if err != nil {
		return nil, err
	}
	defer plainEnv.close()
	rec := newRecorder()
	env, err := startChurn(true, rec)
	if err != nil {
		return nil, err
	}
	defer env.close()
	plainDrv := &churnDriver{env: plainEnv, chk: chk, gen: newChurnGen(p.seed)}
	tracedDrv := &churnDriver{env: env, chk: chk, gen: newChurnGen(p.seed), rec: rec, sh: rec.newShard()}
	measure(plainDrv, len(w.kinds), w.passOps, warmUp)
	measure(tracedDrv, len(w.kinds), w.passOps, warmUp)

	plain, traced := newMeter(plainDrv, len(w.kinds), w.passOps), newMeter(tracedDrv, len(w.kinds), w.passOps)
	traced.rec, traced.sh, traced.opName = rec, tracedDrv.sh, opDecision
	measureSideBySide(plain, traced, p.dur(sideBySideShare))
	conns := rec.connsOpened.Load() // before recovery probes every daemon
	for _, drv := range []*churnDriver{plainDrv, tracedDrv} {
		if drv.err != nil {
			return nil, drv.err
		}
		checkFollowers(drv.env, chk)
		if err := checkRecovery(drv.env, chk); err != nil {
			return nil, err
		}
	}
	spans := rec.all()
	bd := breakDown(spans, opDecision)
	ops := float64(traced.w.ops)
	values := map[string]float64{
		"trace.op_us":            bd.opUS,
		"trace.wire_reqs_per_op": float64(bd.wireReqs) / ops,
		"trace.pfs_calls_per_op": float64(bd.pfsCalls) / ops,
		"trace.conns_opened":     float64(conns),
		"trace.arbiter_call_us":  meanSpanUS(spans, spanArbiter),
		"trace.bus_deliver_us":   meanSpanUS(spans, spanBus),
		"trace.client_apply_us":  meanSpanUS(spans, spanApply),
	}
	perKind(values, w, plain.w)
	return values, finishTraced(values, p, rep, spans, plain, traced)
}

// --- process and environment probes ---------------------------------------

// freeMemory collects a torn-down stack before the next one is built, so
// peak RSS reflects one stack at work, not two overlapping. The pages stay
// mapped: handing them back to the kernel as well (debug.FreeOSMemory) made
// every set-up and the first passes of every epoch fault a gigabyte back
// in on stream_one, and what was measured then was the kernel zeroing
// pages — set-ups of 0.3 or 0.5 s at random instead of 0.2 s.
func freeMemory() { runtime.GC() }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

func statusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	TempFS     string  `json:"temp_dir_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmUpS    float64 `json:"warm_up_s"`
	Epochs     int     `json:"epochs"`
	Generators int     `json:"generator_goroutines"`
}

func readEnvironment(w workloadSpec, p runParams) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown",
		Seed: p.seed, Seconds: p.seconds, WarmUpS: warmUp.Seconds(), Epochs: w.epochs,
		Generators: 1,
	}
	if p.trace {
		env.Epochs = 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if dir, err := scratchDir("probe"); err == nil {
		env.TempFS = fsType(dir)
		os.RemoveAll(dir)
	}
	return env
}

// fsType names the file system holding dir (the journal's fsync cost
// depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
