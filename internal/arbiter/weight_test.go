package arbiter

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

// oneIONApp is an application whose only useful option is a single I/O
// node at the given bandwidth (plus direct access at zero).
func oneIONApp(id string, mbps float64) policy.Application {
	return policy.Application{
		ID: id, Nodes: 8, Processes: 8,
		Curve: perfmodel.NewCurve(
			perfmodel.Point{IONs: 0, Bandwidth: 0},
			perfmodel.Point{IONs: 1, Bandwidth: units.BandwidthFromMBps(mbps)},
		),
	}
}

// TestWithWeightsFavorsGuaranteedTenant: over one contended I/O node, the
// weight source installed via WithWeights lets a lower-bandwidth tenant
// outbid a faster one — the arbiter stamps class weights at solve time
// without JobStarted callers knowing about QoS.
func TestWithWeightsFavorsGuaranteedTenant(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(1), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.WithWeights(func(id string) float64 {
		if id == "gold" {
			return 4
		}
		return 1
	})
	if _, err := arb.JobStarted(oneIONApp("scav", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(oneIONApp("gold", 8)); err != nil {
		t.Fatal(err)
	}
	cur := arb.Current()
	if len(cur["gold"]) != 1 || len(cur["scav"]) != 0 {
		t.Fatalf("weighted arbitration should give the node to gold: %v", cur)
	}
}

// TestWithWeightsNilSourceIsUnweighted: without a weight source the same
// contest goes to raw bandwidth, pinning that WithWeights is opt-in.
func TestWithWeightsNilSourceIsUnweighted(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(1), bus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(oneIONApp("scav", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(oneIONApp("gold", 8)); err != nil {
		t.Fatal(err)
	}
	cur := arb.Current()
	if len(cur["scav"]) != 1 || len(cur["gold"]) != 0 {
		t.Fatalf("unweighted arbitration should favor raw bandwidth: %v", cur)
	}
}

// TestWithWeightsExplicitWeightWins: an application registered with its
// own non-zero Weight keeps it — the installed source only fills blanks.
func TestWithWeightsExplicitWeightWins(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(1), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.WithWeights(func(string) float64 { return 1 })
	strong := oneIONApp("gold", 8)
	strong.Weight = 4
	if _, err := arb.JobStarted(oneIONApp("scav", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(strong); err != nil {
		t.Fatal(err)
	}
	if cur := arb.Current(); len(cur["gold"]) != 1 {
		t.Fatalf("explicit Weight should survive the weight source: %v", cur)
	}
}

// TestJournalCarriesUnstampedWeight: on a journaled arbiter with a weight
// source, the journal keeps each job as its caller registered it — the
// JobStarted record and the next compaction snapshot carry weight 0, not
// the stamped class weight — and Recover stamps the weights again when it
// solves, so the weighted tenant keeps the contended node.
func TestJournalCarriesUnstampedWeight(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{SnapshotEvery: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	weights := func(id string) float64 {
		if id == "gold" {
			return 4
		}
		return 1
	}
	arb, err := New(policy.MCKP{}, addrs(1), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.WithWeights(weights).WithJournal(jn)
	if _, err := arb.JobStarted(oneIONApp("scav", 10)); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Kind != journal.KindJobStarted || recs[0].App.Weight != 0 {
		t.Fatalf("first record after the baseline should be scav's JobStarted at weight 0: %+v", recs)
	}
	// The fourth append (gold's publish) makes the compaction due.
	if _, err := arb.JobStarted(oneIONApp("gold", 8)); err != nil {
		t.Fatal(err)
	}
	st, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || len(st.Running) != 2 {
		t.Fatalf("want a snapshot of both jobs and no record after it: %d records, %+v", len(recs), st.Running)
	}
	for _, ja := range st.Running {
		if ja.Weight != 0 {
			t.Fatalf("snapshot carries %s at weight %v, want the caller's 0", ja.ID, ja.Weight)
		}
	}
	jn.Close()

	rec, _, err := recoverFrom(t, dir, RecoverConfig{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if cur := rec.Current(); len(cur["gold"]) != 1 {
		t.Fatalf("recovery should re-stamp gold's weight and keep it on the node: %v", cur)
	}
	for _, app := range rec.Running() {
		if app.Weight != 0 {
			t.Fatalf("recovered %s carries weight %v, want the caller's 0", app.ID, app.Weight)
		}
	}
}
