package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arbiter"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/livestack"
	"repro/internal/mapping"
	"repro/internal/policy"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// workloadSpec names one workload and says how to drive it. Names are
// fixed: later issues cite them.
type workloadSpec struct {
	name string
	why  string
	// kinds names the op kinds the generator emits, indexed by kind.
	kinds []string
	// passOps is the fixed pass size: throughput is the median over
	// passes, so one disturbed pass cannot move it.
	passOps int
	// epochs is how many freshly set-up stacks share the timed window of
	// an untraced run. How fast a stack runs on a two-core box depends on
	// the stack instance (which threads its goroutines and connections
	// landed on) as much as on the code, so the window is spread over as
	// many instances as the set-up cost allows.
	epochs int
	// Data-plane workloads only.
	peak    int  // I/O nodes the app's curve peaks at = expected allocation
	guarded bool // every data-plane opt-in armed (but idle)
	small   bool // 4 KiB mixed ops instead of 4 MiB streaming
}

var workloads = []workloadSpec{
	{
		name: "stream_fanout", peak: 4, passOps: 2 * streamFile / streamReq, epochs: 8,
		kinds: []string{"write", "read"},
		why:   "4 MiB requests fanned out as concurrent chunk spans over 4 I/O nodes: fwd span building, parallel rpc conns and pfs memcpy carry it",
	},
	{
		name: "stream_one", peak: 1, passOps: 2 * streamFile / streamReq, epochs: 8,
		kinds: []string{"write", "read"},
		why:   "same 4 MiB stream coalesced into one span on one I/O node (the paper's ONE case): serial, frames above the largest rpc pool class",
	},
	{
		name: "small_mixed", peak: 4, small: true, passOps: 2000, epochs: 16,
		kinds: []string{"write", "read", "meta"},
		why:   "seeded 4 KiB write/read/metadata mix on a bare stack: per-message cost in fwd routing, rpc framing and syscalls, ion handler and agios dominates",
	},
	{
		name: "small_guarded", peak: 4, small: true, guarded: true, passOps: 2000, epochs: 16,
		kinds: []string{"write", "read", "meta"},
		why:   "the identical op stream with every data-plane opt-in armed but idle: the feature tax as an end-to-end row",
	},
	{
		name: "arbiter_churn", passOps: 50, epochs: 32,
		kinds: []string{"start", "finish"},
		why:   "control plane only: seeded job starts/finishes on a 12-node arbiter, each decision timed until all 8 subscribed idle clients applied it; the data plane does nothing",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) dataPlane() bool { return w.peak > 0 }

const (
	dataPlanePool = 4  // I/O nodes in the data-plane stacks
	churnPool     = 12 // paper §5.3 pool
	// qualityDecisions is how many decisions (counted from the start of
	// the generated sequence, with ≥2 jobs running) feed the policy
	// quality metrics, so they depend on the seed and never on timing.
	qualityDecisions = 2000

	waitTimeout = 10 * time.Second
)

func mbps(v float64) units.Bandwidth { return units.BandwidthFromMBps(v) }

// checks counts what the run attempted and what failed: generator ops and
// the output checks alike. Any failure makes the run incorrect.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) expect(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkReadBack is the byte-for-byte output check on every read the
// generators issue.
func checkReadBack(got []byte, n int, err error, want []byte) bool {
	return err == nil && n == len(want) && bytes.Equal(got[:n], want)
}

// stepper performs the next generated op and reports its kind, when the
// timed call started and how long it took. Verification and generator
// bookkeeping happen outside the timed interval.
type stepper interface {
	step() (kind int, start time.Time, d time.Duration)
}

// window is what one measured interval produced.
type window struct {
	ops        int
	lat        [][]float64 // per kind, µs
	passes     []float64   // ops/s of in-op time, one per pass
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
}

// meter drives one stepper in passes and accumulates its window. Op
// spans go to sh when set.
type meter struct {
	s       stepper
	passOps int
	w       window

	rec    *recorder
	sh     *shard
	opName string
}

func newMeter(s stepper, nkinds, passOps int) *meter {
	m := &meter{s: s, passOps: passOps, w: window{lat: make([][]float64, nkinds)}}
	for k := range m.w.lat {
		m.w.lat[k] = make([]float64, 0, 1<<16)
	}
	return m
}

// pass runs one pass and returns when its last op ended.
func (m *meter) pass() time.Time {
	var inOp time.Duration
	var last time.Time
	for i := 0; i < m.passOps; i++ {
		k, start, dur := m.s.step()
		m.w.lat[k] = append(m.w.lat[k], float64(dur)/1e3)
		inOp += dur
		last = start.Add(dur)
		if m.sh != nil {
			at := m.rec.at(start)
			m.sh.add(m.opName, at, at+int64(dur), spanNoIndex)
		}
	}
	m.w.ops += m.passOps
	m.w.passes = append(m.w.passes, float64(m.passOps)/inOp.Seconds())
	return last
}

// account charges the wall time, process CPU and allocations of f to
// the meter's window.
func (m *meter) account(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	f()
	m.w.wall += time.Since(t0)
	m.w.cpu += processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	m.w.mallocs += m1.Mallocs - m0.Mallocs
	m.w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// measure drives s in passes of passOps for at least d.
func measure(s stepper, nkinds, passOps int, d time.Duration) window {
	m := newMeter(s, nkinds, passOps)
	m.account(func() {
		for deadline := time.Now().Add(d); m.pass().Before(deadline); {
		}
	})
	return m.w
}

// measureSideBySide alternates passes of an untraced and a traced lane
// for at least d, so both see the same machine weather and the ratio of
// their latencies is the tracing overhead. Which lane goes first flips
// every round: with a fixed order a periodic cost (a garbage collection
// every so many megabytes) can lock onto one lane. Only the untraced lane
// is charged allocations: the traced one also pays for span storage.
func measureSideBySide(plain, traced *meter, d time.Duration) {
	deadline := time.Now().Add(d)
	for round := 0; ; round++ {
		var last time.Time
		if round%2 == 0 {
			plain.account(func() { plain.pass() })
			last = traced.pass()
		} else {
			traced.pass()
			plain.account(func() { last = plain.pass() })
		}
		if !last.Before(deadline) {
			return
		}
	}
}

// allLatencies concatenates the per-kind samples.
func (w window) allLatencies() []float64 {
	var all []float64
	for _, l := range w.lat {
		all = append(all, l...)
	}
	return all
}

// spin polls cond with runtime.Gosched (no sleeps: a sleep's granularity
// would be the measurement) until it holds or waitTimeout passes.
func spin(cond func() bool) bool {
	deadline := time.Now().Add(waitTimeout)
	for i := 0; !cond(); i++ {
		if i&1023 == 1023 && time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// scratchBase is where journals and other run files go: under the
// checkout's build directory, so the benchmark writes nowhere else. Tests
// point it at their own temporary directory.
var scratchBase = filepath.Join(".bench_build", "tmp")

func scratchDir(name string) (string, error) {
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchBase, name+"-")
}

// --- data-plane workloads --------------------------------------------------

const (
	streamPath  = "/bench/stream.dat"
	smallPath   = "/bench/small.dat"
	scratchPath = "/bench/scratch"
	appID       = "benchapp"
)

// dataDriver is a data-plane generator bound to one client.
type dataDriver interface {
	stepper
	attach(c *fwd.Client)
	presize() error
	sentBytes() int64
}

// dataEnv is one running data-plane stack with its client.
type dataEnv struct {
	st      *livestack.Stack
	c       *fwd.Client
	granted int
	tmp     string
}

func (e *dataEnv) close() {
	e.st.Close()
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

// stackConfig adjusts a stack configuration; dir is a scratch directory
// the stack may write to.
type stackConfig func(cfg *livestack.Config, dir string) error

// optIn arms one data-plane opt-in.
type optIn struct {
	name string
	arm  stackConfig
}

// optIns are the opt-ins the ledger taxes one by one and small_guarded
// arms all at once. Floors and timeouts are far above anything a stall on
// a busy two-core box produces, so "armed but idle" holds run after run.
var optIns = []optIn{
	{"checksum", func(cfg *livestack.Config, _ string) error { cfg.WireChecksum = true; return nil }},
	{"dedup", func(cfg *livestack.Config, _ string) error { cfg.DedupWindow = 1024; return nil }},
	{"epoch", func(cfg *livestack.Config, dir string) error { cfg.JournalDir = dir; return nil }},
	{"qos", func(cfg *livestack.Config, _ string) error {
		// A guaranteed class whose bucket is far above the offered rate.
		reg := qos.NewRegistry()
		if err := reg.AddClass(qos.Class{Name: "gold", Tier: qos.TierGuaranteed, Rate: 1 << 40, Weight: 1}); err != nil {
			return err
		}
		if err := reg.AssignApp(appID, "gold"); err != nil {
			return err
		}
		cfg.QoS = reg
		return reg.Finish()
	}},
	{"throttle", func(cfg *livestack.Config, _ string) error {
		cfg.Throttle = fwd.ThrottleConfig{Enabled: true}
		return nil
	}},
	// Hedging requires the dedup window: arm "dedup" with it.
	{"hedge", func(cfg *livestack.Config, _ string) error {
		cfg.Hedge = fwd.HedgeConfig{Enabled: true, MinDelay: time.Second}
		return nil
	}},
	{"tracer", func(cfg *livestack.Config, _ string) error { cfg.Tracer = telemetry.NewTracer(0); return nil }},
	{"rpcopts", func(cfg *livestack.Config, _ string) error {
		cfg.RPC = rpc.Options{CallTimeout: 10 * time.Second, MaxRetries: 2, BreakerThreshold: 8}
		return nil
	}},
}

// armed returns the configuration that arms the named opt-ins.
func armed(names ...string) stackConfig {
	return func(cfg *livestack.Config, dir string) error {
		for _, o := range optIns {
			for _, n := range names {
				if o.name == n {
					if err := o.arm(cfg, dir); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}

// guardedConfig arms every data-plane opt-in, plus bounded admission and
// the health prober with fail-slow detection, so that none of them fires
// on a healthy loopback stack: the ops pay the checks, never the
// fallbacks.
func guardedConfig(cfg *livestack.Config, journalDir string) error {
	for _, o := range optIns {
		if err := o.arm(cfg, journalDir); err != nil {
			return err
		}
	}
	cfg.QueueCap = 1 << 16
	cfg.MaxInflight = 1 << 16
	cfg.HealthInterval = 50 * time.Millisecond
	cfg.HealthTimeout = 2 * time.Second
	cfg.HealthFailThreshold = 5
	cfg.SlowFactor = 100
	return nil
}

// traceSeams installs the bench/ span wrappers on the daemon seams.
func traceSeams(cfg *livestack.Config, rec *recorder) {
	cfg.WrapListener = func(i int, ln net.Listener) net.Listener {
		return &tracedListener{Listener: ln, rec: rec, ion: i}
	}
	cfg.WrapBackend = func(i int, b ion.Backend) ion.Backend {
		return &tracedBackend{b: b, rec: rec, sh: rec.newShard(), ion: i}
	}
}

// fakePool returns n addresses nothing listens on, for arbiters whose
// decisions are never routed on.
func fakePool(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:1", i+1)
	}
	return addrs
}

// startDataPlane is the untimed-by-the-run, timed-as-setup_s part: start
// the stack, attach a client, register the job, wait for the expected
// allocation and pre-size the files. rec, when set, installs the tracing
// wrappers on the daemon seams.
func startDataPlane(w workloadSpec, drv dataDriver, rec *recorder) (*dataEnv, error) {
	cfg := livestack.Config{IONs: dataPlanePool}
	env := &dataEnv{}
	if w.guarded {
		tmp, err := scratchDir(w.name)
		if err != nil {
			return nil, err
		}
		env.tmp = tmp
		if err := guardedConfig(&cfg, tmp); err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}
	}
	if rec != nil {
		traceSeams(&cfg, rec)
	}
	st, err := livestack.Start(cfg)
	if err != nil {
		if env.tmp != "" {
			os.RemoveAll(env.tmp)
		}
		return nil, err
	}
	env.st = st
	c, err := st.NewClient(appID)
	if err != nil {
		env.close()
		return nil, err
	}
	env.c = c
	granted, err := st.Arbiter.JobStarted(peakedApp(appID, w.peak))
	if err != nil {
		env.close()
		return nil, err
	}
	env.granted = len(granted)
	if !spin(func() bool { return len(c.IONs()) == w.peak }) {
		env.close()
		return nil, fmt.Errorf("%s: client never observed %d I/O nodes (granted %d, has %v)", w.name, w.peak, env.granted, c.IONs())
	}
	drv.attach(c)
	if err := drv.presize(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// streamDriver writes the 64 MiB file front to back in 4 MiB requests,
// reads it back comparing every byte, and repeats. Each request's payload
// is a window into a seeded pool whose position depends on (cycle,
// request), so consecutive cycles write different bytes.
type streamDriver struct {
	c       *fwd.Client
	chk     *checks
	pool    []byte
	rbuf    []byte
	cycle   int
	idx     int
	reading bool
	sent    int64
}

const streamPoolSlack = 64 * kib

func newStreamDriver(seed uint64, chk *checks) *streamDriver {
	return &streamDriver{
		chk:  chk,
		pool: randomBytes(newRNG(seed, 3), streamReq+streamPoolSlack),
		rbuf: make([]byte, streamReq),
	}
}

func (d *streamDriver) attach(c *fwd.Client) { d.c = c }
func (d *streamDriver) sentBytes() int64     { return d.sent }

func (d *streamDriver) payload(cycle, idx int) []byte {
	shift := ((cycle*(streamFile/streamReq) + idx) * 4099) % streamPoolSlack
	return d.pool[shift : shift+streamReq]
}

// presize fills the file on a fresh stack and rewinds the op stream, so
// every set-up repetition starts the same run.
func (d *streamDriver) presize() error {
	d.cycle, d.idx, d.reading, d.sent = 0, 0, false, 0
	if err := d.c.Create(streamPath); err != nil {
		return err
	}
	for i := 0; i < streamFile/streamReq; i++ {
		n, err := d.c.Write(streamPath, int64(i)*streamReq, d.payload(0, i))
		d.sent += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *streamDriver) step() (int, time.Time, time.Duration) {
	off := int64(d.idx) * streamReq
	want := d.payload(d.cycle, d.idx)
	var kind int
	var start time.Time
	var dur time.Duration
	if !d.reading {
		kind = kindWrite
		start = time.Now()
		n, err := d.c.Write(streamPath, off, want)
		dur = time.Since(start)
		d.sent += int64(n)
		d.chk.expect(err == nil && n == len(want), "stream write at %d: n=%d err=%v", off, n, err)
	} else {
		kind = kindRead
		start = time.Now()
		n, err := d.c.Read(streamPath, off, d.rbuf)
		dur = time.Since(start)
		d.chk.expect(checkReadBack(d.rbuf, n, err, want), "stream read-back at %d differs from what was written (n=%d err=%v)", off, n, err)
	}
	if d.idx++; d.idx == streamFile/streamReq {
		d.idx = 0
		if d.reading {
			d.cycle++
		}
		d.reading = !d.reading
	}
	return kind, start, dur
}

// smallDriver issues the seeded small_* mix against a pre-filled 16 MiB
// file and verifies every read against a shadow copy.
type smallDriver struct {
	c      *fwd.Client
	chk    *checks
	seed   uint64
	gen    *smallGen
	pool   []byte
	shadow []byte
	rbuf   []byte
	sent   int64
}

func newSmallDriver(seed uint64, chk *checks) *smallDriver {
	return &smallDriver{
		chk:  chk,
		seed: seed,
		pool: randomBytes(newRNG(seed, 4), mib),
		rbuf: make([]byte, smallReq),
	}
}

func (d *smallDriver) attach(c *fwd.Client) { d.c = c }
func (d *smallDriver) sentBytes() int64     { return d.sent }
func (d *smallDriver) newGen() *smallGen    { return newSmallGen(d.seed, len(d.pool)) }

// presize fills file and shadow on a fresh stack and rewinds the op
// stream, so every set-up repetition starts the same run.
func (d *smallDriver) presize() error {
	d.sent = 0
	d.gen = d.newGen()
	d.shadow = randomBytes(newRNG(d.seed, 5), smallFile)
	if err := d.c.Create(smallPath); err != nil {
		return err
	}
	for off := 0; off < smallFile; off += streamReq {
		n, err := d.c.Write(smallPath, int64(off), d.shadow[off:off+streamReq])
		d.sent += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *smallDriver) step() (int, time.Time, time.Duration) {
	op := d.gen.next()
	var start time.Time
	var dur time.Duration
	switch op.kind {
	case kindWrite:
		p := d.pool[op.src : op.src+smallReq]
		start = time.Now()
		n, err := d.c.Write(smallPath, op.off, p)
		dur = time.Since(start)
		d.sent += int64(n)
		if d.chk.expect(err == nil && n == smallReq, "small write at %d: n=%d err=%v", op.off, n, err) {
			copy(d.shadow[op.off:], p)
		}
	case kindRead:
		start = time.Now()
		n, err := d.c.Read(smallPath, op.off, d.rbuf)
		dur = time.Since(start)
		d.chk.expect(checkReadBack(d.rbuf, n, err, d.shadow[op.off:op.off+smallReq]),
			"small read at %d differs from the shadow copy (n=%d err=%v)", op.off, n, err)
	default:
		if op.scratch {
			start = time.Now()
			cerr := d.c.Create(scratchPath)
			rerr := d.c.Remove(scratchPath)
			dur = time.Since(start)
			d.chk.expect(cerr == nil && rerr == nil, "scratch create/remove: %v / %v", cerr, rerr)
		} else {
			start = time.Now()
			fi, err := d.c.Stat(smallPath)
			dur = time.Since(start)
			d.chk.expect(err == nil && fi.Size == smallFile, "stat: size=%d err=%v", fi.Size, err)
		}
	}
	return op.kind, start, dur
}

func newDataDriver(w workloadSpec, seed uint64, chk *checks) dataDriver {
	if w.small {
		return newSmallDriver(seed, chk)
	}
	return newStreamDriver(seed, chk)
}

// dataCounts is what the public accessors report after a data-plane run.
type dataCounts struct {
	fwd          fwd.Stats
	ion          ion.Stats // summed over daemons
	seeks, locks int64
	pfsWritten   int64
	hedges       int64
}

func collectDataCounts(env *dataEnv) dataCounts {
	dc := dataCounts{fwd: env.c.Stats()}
	for _, d := range env.st.Daemons {
		s := d.Stats()
		dc.ion.Writes += s.Writes
		dc.ion.Reads += s.Reads
		dc.ion.MetaOps += s.MetaOps
		dc.ion.Dispatches += s.Dispatches
		dc.ion.Aggregated += s.Aggregated
		dc.ion.QueueRejects += s.QueueRejects
		dc.ion.DedupReplays += s.DedupReplays
	}
	m := env.st.Store.Metrics()
	dc.seeks, dc.locks, dc.pfsWritten = m.Seeks, m.LockWaits, m.BytesWritten
	for name, v := range env.st.Telemetry.Snapshot().Counters {
		if strings.HasPrefix(name, "fwd_hedge_launched_total") {
			dc.hedges += v
		}
	}
	return dc
}

// checkDataPlane runs the end-of-run output checks of a forwarded
// workload.
func checkDataPlane(w workloadSpec, env *dataEnv, drv dataDriver, chk *checks) dataCounts {
	dc := collectDataCounts(env)
	chk.expect(env.granted == w.peak && len(env.c.IONs()) == w.peak,
		"allocation: arbiter granted %d, client holds %d, expected %d", env.granted, len(env.c.IONs()), w.peak)
	chk.expect(dc.pfsWritten == drv.sentBytes(),
		"byte conservation: PFS stored %d bytes, generator sent %d", dc.pfsWritten, drv.sentBytes())
	chk.expect(dc.fwd.DirectOps == 0, "forwarded workload took the direct path %d times", dc.fwd.DirectOps)
	chk.expect(dc.fwd.FailoverOps == 0 && dc.fwd.DegradedOps == 0,
		"fallbacks fired: failover=%d degraded=%d", dc.fwd.FailoverOps, dc.fwd.DegradedOps)
	if w.guarded {
		chk.expect(dc.ion.DedupReplays == 0 && dc.fwd.ReplayedWrites == 0,
			"dedup not idle: daemon replays=%d client replays=%d", dc.ion.DedupReplays, dc.fwd.ReplayedWrites)
		chk.expect(dc.fwd.ShedResponses == 0 && dc.ion.QueueRejects == 0,
			"backpressure not idle: shed=%d rejects=%d", dc.fwd.ShedResponses, dc.ion.QueueRejects)
		chk.expect(dc.hedges == 0, "hedging not idle: %d hedges launched", dc.hedges)
	}
	return dc
}

// --- arbiter_churn ----------------------------------------------------------

// busTap is the bench-owned mapping subscriber of the traced run: it
// stamps when each publication reached a subscriber.
type busTap struct {
	count  atomic.Int64
	lastNS atomic.Int64
	rec    *recorder
	cancel func()
	done   chan struct{}
}

func (t *busTap) stop() {
	t.cancel()
	<-t.done
}

// churnEnv is the control-plane stack: a journaled 12-node arbiter and 8
// subscribed clients that never issue I/O.
type churnEnv struct {
	st      *livestack.Stack
	clients []*fwd.Client
	tmp     string
	tap     *busTap
	// maps is how many mappings every subscriber must have applied by
	// now: the bus's initial map plus one per successful decision.
	maps int64
}

func (e *churnEnv) close() {
	if e.tap != nil {
		e.tap.stop()
	}
	e.st.Close()
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

func slotID(i int) string { return fmt.Sprintf("slot%d", i) }

// startChurn starts the control-plane stack. With journaled set the
// arbiter writes (and fsyncs) its journal under the checkout; rec installs
// the tracing wrappers and the bus tap.
func startChurn(journaled bool, rec *recorder) (*churnEnv, error) {
	cfg := livestack.Config{IONs: churnPool}
	tmp := ""
	if journaled {
		var err error
		if tmp, err = scratchDir("arbiter_churn"); err != nil {
			return nil, err
		}
		cfg.JournalDir = tmp
	}
	if rec != nil {
		traceSeams(&cfg, rec) // so the traced run can show the data plane stayed silent
	}
	st, err := livestack.Start(cfg)
	if err != nil {
		if tmp != "" {
			os.RemoveAll(tmp)
		}
		return nil, err
	}
	env := &churnEnv{st: st, tmp: tmp}
	for i := 0; i < churnSlots; i++ {
		c, err := st.NewClient(slotID(i))
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, c)
	}
	if rec != nil {
		ch, cancel := st.Bus.Subscribe()
		tap := &busTap{rec: rec, cancel: cancel, done: make(chan struct{})}
		go func() {
			defer close(tap.done)
			for range ch {
				tap.lastNS.Store(rec.now())
				tap.count.Add(1)
			}
		}()
		env.tap = tap
	}
	// Every subscriber starts with the bus's current (empty) map queued.
	env.maps = 1
	if !env.applied() {
		env.close()
		return nil, errors.New("arbiter_churn: clients never applied the initial mapping")
	}
	return env, nil
}

// applied waits until every client (and the tap) has applied e.maps
// mappings.
func (e *churnEnv) applied() bool {
	for _, c := range e.clients {
		c := c
		if !spin(func() bool { return c.Stats().RemapsApplied >= e.maps }) {
			return false
		}
	}
	return e.tap == nil || spin(func() bool { return e.tap.count.Load() >= e.maps })
}

// churnDriver toggles job slots. One decision = the arbiter call plus the
// time until every client has applied the mapping it published.
type churnDriver struct {
	env     *churnEnv
	chk     *checks
	gen     *churnGen
	running [churnSlots]bool

	rec *recorder
	sh  *shard
	err error // first fatal error: a client stopped following the bus
}

func (d *churnDriver) step() (int, time.Time, time.Duration) {
	s := d.gen.next()
	id := slotID(s.slot)
	arb := d.env.st.Arbiter
	kind := kindStart
	var err error
	t0 := time.Now()
	if d.running[s.slot] {
		kind = kindFinish
		err = arb.JobFinished(id)
	} else {
		_, err = arb.JobStarted(policy.FromAppSpec(id, s.app))
	}
	t1 := time.Now()
	if d.chk.expect(err == nil, "%s %s: %v", d.env.st.Arbiter.PolicyName(), id, err) {
		d.env.maps++
		if !d.env.applied() && d.err == nil {
			d.err = fmt.Errorf("arbiter_churn: clients stalled before mapping %d", d.env.maps)
		}
		d.running[s.slot] = kind == kindStart
	}
	t2 := time.Now()
	if d.sh != nil {
		a0, a1, a2 := d.rec.at(t0), d.rec.at(t1), d.rec.at(t2)
		d.sh.add(spanArbiter, a0, a1, spanNoIndex)
		d.sh.add(spanApply, a1, a2, spanNoIndex)
		if recv := d.env.tap.lastNS.Load(); recv > a1 {
			d.sh.add(spanBus, a1, recv, spanNoIndex)
		} else {
			d.sh.add(spanBus, a1, a1, spanNoIndex)
		}
	}
	return kind, t0, t2.Sub(t0)
}

// policyQuality accumulates the two application-level outcomes of the
// arbitration (after "Periodic I/O scheduling for super-computers"):
// system efficiency, Σ bandwidth at the granted node counts ÷ Σ best
// bandwidth, averaged over decisions; and the worst per-app dilation, best
// bandwidth ÷ bandwidth at the granted count.
type policyQuality struct {
	n           int
	effSum      float64
	maxDilation float64
}

func (q *policyQuality) add(apps []policy.Application, assign map[string][]string) bool {
	var got, best float64
	for _, app := range apps {
		bw, ok := app.Curve.At(len(assign[app.ID]))
		if !ok || bw <= 0 {
			return false
		}
		b := app.Curve.Best().Bandwidth
		got += float64(bw)
		best += float64(b)
		if dil := float64(b) / float64(bw); dil > q.maxDilation {
			q.maxDilation = dil
		}
	}
	q.n++
	q.effSum += got / best
	return true
}

func (q policyQuality) efficiency() float64 {
	if q.n == 0 {
		return 0
	}
	return q.effSum / float64(q.n)
}

// churnQuality scores the arbitration policy on the workload's seeded
// job sequence: the first qualityDecisions decisions that leave at least
// two jobs running, replayed on an arbiter of the same pool size with
// nobody subscribed. It is a function of the seed alone — no clock, no
// disk — so two runs of one commit agree bit for bit. A granted node
// count that is not a point of the job's curve fails a check.
func churnQuality(seed uint64, chk *checks) (policyQuality, error) {
	arb, err := arbiter.New(policy.MCKP{}, fakePool(churnPool), mapping.NewBus())
	if err != nil {
		return policyQuality{}, err
	}
	var q policyQuality
	gen := newChurnGen(seed)
	running := map[string]policy.Application{}
	for q.n < qualityDecisions {
		s := gen.next()
		id := slotID(s.slot)
		if _, on := running[id]; on {
			err = arb.JobFinished(id)
			delete(running, id)
		} else {
			running[id] = policy.FromAppSpec(id, s.app)
			_, err = arb.JobStarted(running[id])
		}
		if err != nil {
			return q, err
		}
		if len(running) < 2 {
			continue
		}
		apps := make([]policy.Application, 0, len(running))
		for _, app := range running {
			apps = append(apps, app)
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })
		assign := arb.Current()
		chk.expect(q.add(apps, assign), "allocation off the curve: %v", assign)
	}
	return q, nil
}

// checkFollowers checks that every client sits on the bus's final mapping
// having applied exactly one remap per publication.
func checkFollowers(env *churnEnv, chk *checks) {
	final := env.st.Bus.Current()
	for i, c := range env.clients {
		have, want := c.IONs(), final.For(slotID(i))
		chk.expect(sameSet(have, want) && c.Stats().RemapsApplied == env.maps,
			"client %s is not on the final mapping v%d: has %v (%d remaps), bus says %v (%d maps)",
			slotID(i), final.Version, have, c.Stats().RemapsApplied, want, env.maps)
	}
}

// checkRecovery crashes the control plane of a journaled stack and
// requires the recovery to reproduce the pre-crash assignment.
func checkRecovery(env *churnEnv, chk *checks) error {
	before := env.st.Arbiter.Current()
	if err := env.st.CrashControlPlane(); err != nil {
		return err
	}
	err := env.st.RecoverControlPlane()
	if env.st.Arbiter == nil {
		return fmt.Errorf("arbiter_churn: recovery failed: %w", err)
	}
	after := env.st.Arbiter.Current()
	chk.expect(err == nil && sameAssignment(before, after),
		"recovery did not reproduce the pre-crash assignment (err=%v): before %v, after %v", err, before, after)
	return nil
}

// recoveryDrillDecisions is how many journaled decisions precede the
// crash in the drill that ends an untraced arbiter_churn run.
const recoveryDrillDecisions = 300

// recoveryDrill runs the start of the seeded sequence on a journaled
// stack, untimed, then crashes and recovers its control plane.
func recoveryDrill(seed uint64, chk *checks) error {
	env, err := startChurn(true, nil)
	if err != nil {
		return err
	}
	defer env.close()
	d := &churnDriver{env: env, chk: chk, gen: newChurnGen(seed)}
	for i := 0; i < recoveryDrillDecisions; i++ {
		d.step()
	}
	if d.err != nil {
		return d.err
	}
	checkFollowers(env, chk)
	return checkRecovery(env, chk)
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func sameAssignment(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for id, addrs := range a {
		if !sameSet(addrs, b[id]) {
			return false
		}
	}
	return true
}

// curveQuality is the quality of one single-job decision: the data-plane
// workloads make exactly one, at set-up.
func curveQuality(app policy.Application, granted int) policyQuality {
	var q policyQuality
	q.add([]policy.Application{app}, map[string][]string{app.ID: make([]string, granted)})
	return q
}
