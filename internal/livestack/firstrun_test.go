package livestack

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/darshan"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

// TestFirstRunCharacterizationPipeline exercises the paper's §3.1 data
// path on the live stack:
//
//  1. an unknown application runs with the machine default (MCKP's
//     fallback), traced by the Darshan-style wrapper;
//  2. its access pattern is extracted from the trace and the performance
//     model estimates its full bandwidth curve;
//  3. the next arbitration uses the learned curve, and the decision
//     differs from the default (the system got smarter without
//     profiling runs).
func TestFirstRunCharacterizationPipeline(t *testing.T) {
	st, err := Start(Config{IONs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// --- Run 1: no curve data. MCKP falls back to the STATIC default.
	unknown := policy.Application{ID: "newapp", Nodes: 8, Processes: 32}
	assigned, err := st.Arbiter.JobStarted(unknown)
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) == 0 {
		t.Fatal("fallback should assign the machine default, not zero")
	}
	client, err := st.NewClient("newapp")
	if err != nil {
		t.Fatal(err)
	}
	allocated(t, client, len(assigned))

	// Trace the first execution through the forwarding client.
	tracer := darshan.NewTracer(client)
	kernel := apps.IOR{ // a small shared-file workload
		Label: "newapp", Ranks: 32,
		BlockSize: 256 * units.KiB, TransferSize: 32 * units.KiB,
	}
	if _, err := kernel.Run(tracer, "/newapp/run1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Arbiter.JobFinished("newapp"); err != nil {
		t.Fatal(err)
	}

	// --- Characterize: trace → pattern → estimated curve.
	report := tracer.Report()
	pat := report.ExtractPattern(unknown.Nodes, unknown.Processes)
	if pat.Validate() != nil {
		t.Fatalf("extracted pattern invalid: %+v", pat)
	}
	curve := darshan.EstimateCurve(pat, perfmodel.Default(), 8, true)
	if curve.Len() == 0 {
		t.Fatal("no curve estimated")
	}

	// --- Run 2: the arbiter now has real options for this application.
	known := unknown
	known.Curve = curve
	second, err := st.Arbiter.JobStarted(known)
	if err != nil {
		t.Fatal(err)
	}
	want := curve.Best().IONs
	if len(second) != want {
		t.Fatalf("informed arbitration should give the curve optimum (%d), got %d", want, len(second))
	}
	t.Logf("first run (default): %d IONs; after characterization (%s): %d IONs",
		len(assigned), pat, len(second))
}
