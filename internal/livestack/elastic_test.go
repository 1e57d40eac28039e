package livestack

// Elastic tests at the stack level: the default-off contract, the
// scaler's config cross-check, and the allocation waiter. The breathing
// acceptance scenario is internal/scenario's TestElasticPoolBreathesUnderChaos.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/elastic"
)

// TestElasticZeroConfigKeepsStaticPool pins the default-off contract:
// without an Elastic config the stack is the pre-elastic static pool —
// no scaler, no elastic metric series, membership fixed.
func TestElasticZeroConfigKeepsStaticPool(t *testing.T) {
	st := startStack(t, 3)
	if st.Scaler != nil {
		t.Fatal("zero-config stack started a scaler")
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "static")); err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("static")
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(c, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/static"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/static", 0, []byte("unchanged")); err != nil {
		t.Fatal(err)
	}
	snap := st.Telemetry.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	if got := len(st.IONAddrs()); got != 3 {
		t.Fatalf("static pool size changed: %d IONs, want 3", got)
	}
}

// TestElasticRequiresHealthProber pins the config cross-check: the scaler
// feeds on prober load samples, so Elastic without HealthInterval is a
// startup error, not a silent no-op.
func TestElasticRequiresHealthProber(t *testing.T) {
	_, err := Start(Config{
		IONs:    2,
		Elastic: &elastic.Config{Min: 2, Max: 4, UpWatermark: 1, DownWatermark: 0.5, Quiesced: func(string) bool { return true }},
	})
	if err == nil || !strings.Contains(err.Error(), "HealthInterval") {
		t.Fatalf("Elastic without HealthInterval: err = %v, want HealthInterval complaint", err)
	}
}

// TestWaitForAllocationDeadlineAndDiagnostics: a wait that no install
// satisfies returns at its deadline, and the timeout error carries the
// mapping the client last observed.
func TestWaitForAllocationDeadlineAndDiagnostics(t *testing.T) {
	st := startStack(t, 2)
	c, err := st.NewClient("lonely")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = WaitForAllocation(c, 2, 40*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("no allocation was ever published, want a timeout error")
	}
	if !strings.Contains(err.Error(), "last mapping") || !strings.Contains(err.Error(), "0 nodes") {
		t.Errorf("timeout error does not carry the last observed mapping: %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("40ms wait took %v — it overran its deadline", elapsed)
	}

	// The success path is still prompt once a mapping lands.
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "lonely")); err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(c, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
