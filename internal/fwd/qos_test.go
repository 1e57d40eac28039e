package fwd

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// ackServer is a minimal I/O-node stand-in that acks writes and records
// the QoS priority byte of every request it sees.
func ackServer(t *testing.T) (addr string, lastPrio *atomic.Uint32) {
	t.Helper()
	lastPrio = &atomic.Uint32{}
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		lastPrio.Store(uint32(req.Priority))
		req.Size = int64(len(req.Data))
		req.Data = nil
		return req
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, lastPrio
}

func qosClient(t *testing.T, store pfs.FileSystem, class *qos.Class, reg *telemetry.Registry) *Client {
	t.Helper()
	c, err := NewClient(Config{AppID: "qapp", Direct: store, ChunkSize: 1024, QoS: class, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQoSScavengerDegradesToDirect pins the scavenger admission contract:
// a write the empty bucket refuses is satisfied on the direct PFS path —
// correctly, with the degrade observable in both the client stats and the
// per-tenant telemetry series.
func TestQoSScavengerDegradesToDirect(t *testing.T) {
	store, addrs, daemons := testStack(t, 2)
	reg := telemetry.New()
	// Burst admits exactly one 4 KiB write; the refill rate is so slow the
	// second write inside the test window must find an empty bucket.
	class := &qos.Class{Name: "scav", Tier: qos.TierScavenger, Rate: 1, Burst: 4096}
	c := qosClient(t, store, class, reg)
	c.SetIONs(addrs)

	data := bytes.Repeat([]byte{7}, 4096)
	if _, err := c.Write("/s", 0, data); err != nil {
		t.Fatal(err)
	}
	data2 := bytes.Repeat([]byte{9}, 4096)
	if _, err := c.Write("/s", 4096, data2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DegradedOps != 1 {
		t.Fatalf("DegradedOps = %d, want 1 (second write refused by the bucket)", st.DegradedOps)
	}
	// The degraded write bypassed the daemons entirely.
	var daemonBytes int64
	for _, d := range daemons {
		daemonBytes += d.Stats().BytesIn
	}
	if daemonBytes != 4096 {
		t.Fatalf("daemon ingress %d, want only the admitted write (4096)", daemonBytes)
	}
	snap := reg.Snapshot()
	if snap.Counters[`qos_degraded_total{app="qapp"}`] != 1 {
		t.Fatalf("qos_degraded_total missing or wrong: %v", snap.Counters)
	}
	if snap.Counters[`qos_admitted_total{app="qapp"}`] == 0 {
		t.Fatal("qos_admitted_total not counted for the admitted write")
	}
	// Both writes are durable and correct regardless of the path taken
	// (the verification read itself degrades too — the bucket is shared —
	// which is exactly the scavenger contract: correct, just direct).
	got := make([]byte, 8192)
	if _, err := c.Read("/s", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:4096], data) || !bytes.Equal(got[4096:], data2) {
		t.Fatal("degraded write corrupted data")
	}
}

// TestQoSStandardPacesInsteadOfRefusing pins the guaranteed/standard
// admission contract: an empty bucket never refuses the op — it defers it
// for the bucket's repayment time, observable as qos_deferred_total.
func TestQoSStandardPacesInsteadOfRefusing(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	reg := telemetry.New()
	// The refill rate is slow enough that the first write's wall time
	// (milliseconds on a loaded box) cannot repay the burst before the
	// second; pacing costs nothing here, the sleep seam is stubbed below.
	class := &qos.Class{Name: "std", Tier: qos.TierStandard, Rate: 1 << 10, Burst: 4096}
	c := qosClient(t, store, class, reg)
	c.SetIONs(addrs)
	var paced atomic.Int64
	c.qos.sleep = func(d time.Duration) { paced.Add(int64(d)) }

	data := bytes.Repeat([]byte{3}, 4096)
	if _, err := c.Write("/p", 0, data); err != nil { // drains the burst
		t.Fatal(err)
	}
	if _, err := c.Write("/p", 4096, data); err != nil { // must pace, not refuse
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DegradedOps != 0 {
		t.Fatalf("standard tier degraded: %+v", st)
	}
	if st.ForwardedOps == 0 || st.DirectOps != 0 {
		t.Fatalf("paced write did not stay on the forwarded path: %+v", st)
	}
	if paced.Load() == 0 {
		t.Fatal("second write was not paced despite an empty bucket")
	}
	snap := reg.Snapshot()
	if snap.Counters[`qos_deferred_total{app="qapp"}`] != 1 {
		t.Fatalf("qos_deferred_total = %d, want 1", snap.Counters[`qos_deferred_total{app="qapp"}`])
	}
	if snap.Counters[`qos_admitted_total{app="qapp"}`] != 2 {
		t.Fatalf("qos_admitted_total = %d, want both writes", snap.Counters[`qos_admitted_total{app="qapp"}`])
	}
}

// TestQoSPriorityRidesTheWire checks every forwarded request of a classed
// client carries its tier's priority byte — and that an unclassed client
// stamps nothing (priority 0, no trailer, the pre-QoS frame).
func TestQoSPriorityRidesTheWire(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	addr, lastPrio := ackServer(t)

	gold := &qos.Class{Name: "gold", Tier: qos.TierGuaranteed}
	c := qosClient(t, store, gold, nil)
	c.SetIONs([]string{addr})
	if _, err := c.Write("/w", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := uint8(lastPrio.Load()); got != qos.PriorityGuaranteed {
		t.Fatalf("guaranteed write carried priority %d, want %d", got, qos.PriorityGuaranteed)
	}
	if err := c.Fsync("/w"); err != nil {
		t.Fatal(err)
	}
	if got := uint8(lastPrio.Load()); got != qos.PriorityGuaranteed {
		t.Fatalf("metadata op carried priority %d, want %d", got, qos.PriorityGuaranteed)
	}

	plain := newTestClient(t, store, 1024)
	plain.SetIONs([]string{addr})
	if _, err := plain.Write("/w2", 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := uint8(lastPrio.Load()); got != 0 {
		t.Fatalf("unclassed write carried priority %d, want 0", got)
	}
}

// TestQoSZeroConfigHasNoSeries pins opt-in observability: a client built
// without a class registers no qos_* series at all.
func TestQoSZeroConfigHasNoSeries(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	c, err := NewClient(Config{AppID: "plain", Direct: store, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write("/z", 0, []byte("z")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "qos_") {
			t.Fatalf("unclassed client registered %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "qos_") {
			t.Fatalf("unclassed client registered %s", name)
		}
	}
}
