package livestack

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// TestTelemetryEndToEnd pushes real traffic through the live stack and
// checks the observability contract end to end:
//
//	(a) byte conservation — bytes leaving the forwarding clients equal
//	    bytes arriving at the I/O nodes and landing on the PFS;
//	(b) the /metrics exposition parses and carries the rpc latency
//	    histogram;
//	(c) a recorded trace shows every hop of the forwarding path in order:
//	    fwd → rpc → ion → agios → pfs.
func TestTelemetryEndToEnd(t *testing.T) {
	sink := telemetry.NewTestSink()
	st, err := Start(Config{IONs: 4, Telemetry: sink.Registry, Tracer: sink.Tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	app := policy.Application{ID: "telapp", Nodes: 4, Processes: 16}
	assigned, err := st.Arbiter.JobStarted(app)
	if err != nil {
		t.Fatal(err)
	}
	client, err := st.NewClient("telapp")
	if err != nil {
		t.Fatal(err)
	}
	allocated(t, client, len(assigned))

	const path = "/telapp/data"
	if err := client.Create(path); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("forward!"), 4096) // 32 KiB, spans chunks
	total := 0
	for i := 0; i < 4; i++ {
		n, err := client.Write(path, int64(total), payload)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	buf := make([]byte, total)
	if _, err := client.Read(path, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := client.Fsync(path); err != nil {
		t.Fatal(err)
	}

	// (a) Byte conservation across layers.
	for _, pair := range [][2]string{
		{"fwd_bytes_out_total", "ion_bytes_in_total"},
		{"fwd_bytes_out_total", "pfs_bytes_written_total"},
		{"fwd_bytes_in_total", "ion_bytes_out_total"},
		{"fwd_bytes_in_total", "pfs_bytes_read_total"},
	} {
		if err := sink.ExpectEqual(pair[0], pair[1]); err != nil {
			t.Error(err)
		}
	}
	if got := sink.CounterSum("fwd_bytes_out_total"); got != int64(total) {
		t.Errorf("fwd_bytes_out_total = %d, wrote %d", got, total)
	}
	if sink.HistogramCount("rpc_call_latency_seconds") == 0 {
		t.Error("no rpc call latencies observed")
	}

	// (b) HTTP exposition parses and contains the rpc latency histogram.
	srv := httptest.NewServer(telemetry.Handler(st.Telemetry, st.Tracer))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ParsePrometheus(string(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, want := range []string{
		"rpc_call_latency_seconds_bucket", "rpc_call_latency_seconds_count",
		"fwd_bytes_out_total", "ion_writes_total", "pfs_bytes_written_total",
		"arbiter_solves_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	trResp, err := http.Get(srv.URL + "/trace/recent")
	if err != nil {
		t.Fatal(err)
	}
	trBody, _ := io.ReadAll(trResp.Body)
	trResp.Body.Close()
	if !strings.Contains(string(trBody), `"path":"`+path+`"`) {
		t.Errorf("/trace/recent has no trace for %s: %s", path, trBody)
	}

	// (c) A write trace records every hop of the forwarding path in order.
	var wtr telemetry.TraceSnapshot
	found := false
	for _, s := range sink.Traces() {
		if s.Op == "write" && s.Path == path {
			wtr, found = s, true
		}
	}
	if !found {
		t.Fatal("no finished write trace recorded")
	}
	want := []string{"fwd", "rpc", "ion", "agios", "pfs"}
	if got := telemetry.HopLayers(wtr); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("write trace hops = %v, want %v (trace %+v)", got, want, wtr)
	}
	if wtr.Total <= 0 {
		t.Errorf("trace total duration = %v, want > 0", wtr.Total)
	}
	for _, h := range wtr.Hops {
		if h.Duration < 0 {
			t.Errorf("hop %s has negative duration %v", h.Layer, h.Duration)
		}
	}
}

// TestCounterAuditRoundTrip drives a stack with the integrity features on
// through enough activity to register every counter family — including the
// integrity set (rpc_checksum_errors_total, ion_dedup_replays_total,
// ion_restarts_total, fwd_replayed_writes_total) — then audits the
// Prometheus exposition automatically: every counter and gauge registered
// anywhere in the stack must appear verbatim in /metrics, and the whole
// exposition must parse. A counter someone registers in a future layer is
// audited here for free.
func TestCounterAuditRoundTrip(t *testing.T) {
	st, err := Start(Config{
		IONs: 2, Scheduler: "FIFO", ChunkSize: 4096,
		WireChecksum: true, DedupWindow: 16,
		Telemetry: telemetry.New(),
		// A pinned-size scaler (Min = Max) never scales but registers the
		// whole elastic series family, pulling it into the audit below.
		HealthInterval: 50 * time.Millisecond,
		Elastic:        &elastic.Config{Min: 2, Max: 2, UpWatermark: 1, DownWatermark: 0.5},
		// A journal dir registers the journal_* family.
		JournalDir: t.TempDir(),
		// The gray-failure planes register the health_degraded_*,
		// arbiter_quarantine_*, and fwd_hedge_* families. The slowness
		// factor is set absurdly high so a healthy two-node stack never
		// actually degrades anything — the series are audited at zero.
		SlowFactor:      100,
		QuarantineFloor: 1,
		Hedge:           fwd.HedgeConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	app := policy.Application{ID: "audit", Nodes: 2, Processes: 4}
	if _, err := st.Arbiter.JobStarted(app); err != nil {
		t.Fatal(err)
	}
	client, err := st.NewClient("audit")
	if err != nil {
		t.Fatal(err)
	}
	allocated(t, client, 0)
	if err := client.Create("/audit"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write("/audit", 0, bytes.Repeat([]byte("x"), 8192)); err != nil {
		t.Fatal(err)
	}

	// Exercise the integrity counters directly: a duplicate stamped write
	// bumps the daemon's replay counter, and a kill→restart cycle bumps
	// the restart counter.
	dup := &rpc.Message{Op: rpc.OpWrite, Path: "/audit", Offset: 8192,
		Data: []byte("dup"), ClientID: "audit-raw", Seq: 1}
	raw := rpc.Dial(st.Addrs[0], 1)
	defer raw.Close()
	if _, err := raw.Call(dup); err != nil {
		t.Fatal(err)
	}
	resp, err := raw.Call(dup)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Replayed {
		t.Fatal("duplicate stamped write was not replayed")
	}
	st.Daemons[1].Close()
	if err := st.RestartION(1); err != nil {
		t.Fatal(err)
	}

	snap := st.Telemetry.Snapshot()
	// The elastic series are registered (and hence audited below) even on
	// a pinned-size pool that never scales.
	for _, series := range []string{
		"elastic_scale_ups_total", "elastic_scale_downs_total",
		"elastic_drains_started_total", "elastic_drains_aborted_total",
		"elastic_provision_failures_total",
	} {
		if _, ok := snap.Counters[series]; !ok {
			t.Errorf("elastic counter %s not registered", series)
		}
	}
	if v, ok := snap.Gauges["elastic_pool_size"]; !ok || v != 2 {
		t.Errorf("elastic_pool_size = %d (registered=%v), want 2", v, ok)
	}
	if v, ok := snap.Gauges["arbiter_quarantine_ions"]; !ok || v != 0 {
		t.Errorf("arbiter_quarantine_ions = %d (registered=%v), want registered and 0 on a healthy stack", v, ok)
	}
	for counter, wantNonZero := range map[string]bool{
		`rpc_checksum_errors_total{node="ion00"}`:    false, // clean wire: present, zero
		`ion_dedup_replays_total{node="ion00"}`:      true,
		`ion_restarts_total{node="ion01"}`:           true,
		`ion_dispatch_handoffs_total{node="ion00"}`:  false, // may legitimately move; presence is the contract
		`fwd_replayed_writes_total{app="audit"}`:     false, // no transport retry happened
		"journal_appends_total":                      true,  // every JobStarted/publish is journaled
		"journal_fsyncs_total":                       true,
		"journal_append_errors_total":                false, // healthy disk: present, zero
		`epoch_fence_rejections_total{node="ion00"}`: false, // no blackout here: present, zero
		`epoch_stale_retries_total{app="audit"}`:     false,
		"health_degraded_transitions_total":          false, // healthy stack: present, zero
		"health_degraded_recovered_total":            false,
		"arbiter_quarantine_marked_total":            false,
		"arbiter_quarantine_restored_total":          false,
		`fwd_hedge_denied_total{app="audit"}`:        false,
		`fwd_hedge_launched_total{app="audit"}`:      false, // may legitimately move; presence is the contract
		`fwd_hedge_wins_total{app="audit"}`:          false,
	} {
		v, ok := snap.Counters[counter]
		if !ok {
			t.Errorf("integrity counter %s not registered", counter)
		}
		if wantNonZero && v == 0 {
			t.Errorf("%s = 0, the test exercised it", counter)
		}
	}

	// The hand-off counter is a per-node family like the rest of ion_*:
	// one series per daemon, no more.
	perNode := func(family string) (n int) {
		for name := range snap.Counters {
			if strings.HasPrefix(name, family+"{node=") {
				n++
			}
		}
		return n
	}
	if got, want := perNode("ion_dispatch_handoffs_total"), perNode("ion_dispatches_total"); got != want || got != 2 {
		t.Errorf("ion_dispatch_handoffs_total has %d series, ion_dispatches_total %d, want 2 each", got, want)
	}

	srv := httptest.NewServer(telemetry.Handler(st.Telemetry, st.Tracer))
	defer srv.Close()
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ParsePrometheus(string(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	// The automatic audit: every registered series, not a hand-kept list.
	// (The exposition emits snapshot keys verbatim, so containment is
	// exact; the snapshot is re-taken after serving, but counters never
	// unregister.)
	audited := 0
	for name := range snap.Counters {
		if !strings.Contains(string(body), name+" ") {
			t.Errorf("/metrics missing registered counter %s", name)
		}
		audited++
	}
	for name := range snap.Gauges {
		if !strings.Contains(string(body), name+" ") {
			t.Errorf("/metrics missing registered gauge %s", name)
		}
		audited++
	}
	if audited < 20 {
		t.Fatalf("audited only %d series — the stack should register far more", audited)
	}

	// Label-cardinality audit: count distinct label sets per metric family
	// across all kinds. This stack has 2 I/O nodes and 1 application, so no
	// family has a reason to exceed a handful of label sets; a layer that
	// starts labeling by request, offset, or connection shows up here as
	// drift long before it hurts a real deployment (and long before the
	// registry's own DefaultMaxSeriesPerBase backstop coalesces it).
	perFamily := map[string]int{}
	countFamily := func(name string) {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			perFamily[name[:i]]++
		}
	}
	for name := range snap.Counters {
		countFamily(name)
	}
	for name := range snap.Gauges {
		countFamily(name)
	}
	for name := range snap.Histograms {
		countFamily(name)
	}
	const maxPerFamily = 4 // 2 nodes or 1 app, plus generous slack
	for family, n := range perFamily {
		if n > maxPerFamily {
			t.Errorf("family %s has %d label sets on a 2-ION/1-app stack (cardinality drift)", family, n)
		}
		if n > telemetry.DefaultMaxSeriesPerBase {
			t.Errorf("family %s exceeds the registry cap itself: %d", family, n)
		}
	}
	if len(perFamily) == 0 {
		t.Fatal("cardinality audit saw no labeled families — the stack labels per node and per app")
	}
}

// TestGrayFailureSeriesAbsentWhenUnconfigured pins the opt-in contract:
// a stack with no slowness factor and no hedging must register none of
// the gray-failure series — not even at zero. Their absence is how an
// operator knows the planes are off.
func TestGrayFailureSeriesAbsentWhenUnconfigured(t *testing.T) {
	st, err := Start(Config{
		IONs: 2, Scheduler: "FIFO", ChunkSize: 4096,
		Telemetry:      telemetry.New(),
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client, err := st.NewClient("plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(policy.Application{ID: "plain", Nodes: 2, Processes: 4}); err != nil {
		t.Fatal(err)
	}
	allocated(t, client, 0)
	if err := client.Create("/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write("/plain", 0, bytes.Repeat([]byte("y"), 8192)); err != nil {
		t.Fatal(err)
	}

	snap := st.Telemetry.Snapshot()
	check := func(name string) {
		// fwd_degraded_ops_total (overload shedding) predates this PR and
		// is always on; the gray-failure families all carry these prefixes.
		for _, prefix := range []string{"fwd_hedge_", "health_degraded_", "arbiter_quarantine_"} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("series %s registered on a stack that never opted into gray-failure handling", name)
			}
		}
	}
	for name := range snap.Counters {
		check(name)
	}
	for name := range snap.Gauges {
		check(name)
	}
}

// benchmarkForward measures one client forwarding 64 KiB writes to one
// I/O node — the hot path the telemetry overhead budget applies to.
func benchmarkForward(b *testing.B, cfg Config) {
	st, err := Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Arbiter.JobStarted(policy.Application{ID: "bench", Nodes: 1, Processes: 1}); err != nil {
		b.Fatal(err)
	}
	client, err := st.NewClient("bench")
	if err != nil {
		b.Fatal(err)
	}
	allocated(b, client, 0)
	if err := client.Create("/bench/file"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64*1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write("/bench/file", 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardHotPath compares the forwarding write path with tracing
// off (bare: metrics only, nil tracer short-circuits all hop recording)
// against the fully instrumented stack (shared registry + request traces).
// For ad-hoc use: the tracing cost per op that is tracked over time is the
// tax.tracer_us row of the bench/ ledger.
func BenchmarkForwardHotPath(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchmarkForward(b, Config{IONs: 1, Scheduler: "FIFO"})
	})
	b.Run("telemetry", func(b *testing.B) {
		benchmarkForward(b, Config{
			IONs: 1, Scheduler: "FIFO",
			Telemetry: telemetry.New(),
			Tracer:    telemetry.NewTracer(0),
		})
	})
}
