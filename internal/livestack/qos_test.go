package livestack

// The QoS subsystem is strictly opt-in. The noisy-neighbor acceptance
// scenario is internal/scenario's TestQoSNoisyNeighborIsolation.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/qos"
	"repro/internal/telemetry"
)

// TestQoSZeroConfigStackHasNoSeries pins that the subsystem is opt-in: a
// stack built without a QoS registry (or with an empty one) runs exactly
// the pre-QoS configuration — no qos_* telemetry exists anywhere.
func TestQoSZeroConfigStackHasNoSeries(t *testing.T) {
	for _, cfg := range []Config{
		{IONs: 2, Telemetry: telemetry.New()},
		{IONs: 2, Telemetry: telemetry.New(), QoS: qos.NewRegistry()}, // empty registry
	} {
		st, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		client, err := st.NewClient("plain")
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		if _, err := st.Arbiter.JobStarted(policy.Application{ID: "plain", Nodes: 2, Processes: 4}); err != nil {
			st.Close()
			t.Fatal(err)
		}
		if err := WaitForAllocation(client, 0, 2*time.Second); err != nil {
			st.Close()
			t.Fatal(err)
		}
		if _, err := client.Write("/plain", 0, []byte("plain")); err != nil {
			st.Close()
			t.Fatal(err)
		}
		snap := st.Telemetry.Snapshot()
		check := func(names map[string]int64) {
			for name := range names {
				if strings.HasPrefix(name, "qos_") {
					t.Errorf("zero-config stack registered %s", name)
				}
			}
		}
		check(snap.Counters)
		check(snap.Gauges)
		st.Close()
	}
}
