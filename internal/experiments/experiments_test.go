package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"xx", "y"}, {"1", "22222"}},
	}
	s := tbl.String()
	for _, frag := range []string{"== demo ==", "A", "Blong", "xx", "22222", "---"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, s)
		}
	}
}

func TestExpTable1(t *testing.T) {
	r := ExpTable1()
	if len(r.Rows) != 4 {
		t.Fatalf("Table 1 rows: %d", len(r.Rows))
	}
	if r.Rows[0].Name != "Sunway TaihuLight" || r.Rows[0].IONodes != 240 {
		t.Fatalf("row 0: %+v", r.Rows[0])
	}
	if !strings.Contains(r.Table().String(), "Trinity") {
		t.Fatal("render incomplete")
	}
}

func TestExpFigure1(t *testing.T) {
	r := ExpFigure1()
	if len(r.Labels) != 8 {
		t.Fatalf("labels: %v", r.Labels)
	}
	// Pattern A (large fpp) must grow with forwarding; pattern D
	// (small strided) must peak at few IONs.
	if r.BestIONs["A"] < 4 {
		t.Errorf("pattern A best = %d, want ≥4", r.BestIONs["A"])
	}
	if r.BestIONs["D"] > 2 {
		t.Errorf("pattern D best = %d, want ≤2", r.BestIONs["D"])
	}
	for _, label := range r.Labels {
		for k, v := range r.MBps[label] {
			if v <= 0 {
				t.Errorf("%s at %d IONs: %v", label, k, v)
			}
		}
	}
	r.Table() // must not panic
}

func TestExpOptimumDistribution(t *testing.T) {
	r := ExpOptimumDistribution()
	var sum float64
	for _, v := range r.SharePct {
		sum += v
	}
	if math.Abs(sum-100) > 0.1 {
		t.Fatalf("shares sum to %v", sum)
	}
	for _, k := range []int{0, 1, 2, 4, 8} {
		if math.Abs(r.SharePct[k]-r.PaperPct[k]) > 6 {
			t.Errorf("share at %d IONs: %.1f%%, paper %.1f%% (tolerance 6pp)", k, r.SharePct[k], r.PaperPct[k])
		}
	}
}

// smallCampaign is the one 150-set §3.2 campaign that the Figure 2,
// Figure 3 and headline tests read, as the experiments CLI reads one.
var smallCampaign = sync.OnceValues(func() (Figure2Result, error) { return ExpFigure2(150, 4) })

func TestExpFigure2Small(t *testing.T) {
	r, err := smallCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 7 {
		t.Fatalf("policies: %v", r.Policies)
	}
	if r.GBps["MCKP"][128] < r.GBps["MCKP"][8] {
		t.Fatal("MCKP median should grow with the pool")
	}
	if r.GBps["MCKP"][128] < r.GBps["ORACLE"][128]*0.999 {
		t.Fatal("MCKP should reach ORACLE at 128 IONs")
	}
	r.Table()
}

func TestExpFigure3Small(t *testing.T) {
	fig2, err := smallCampaign()
	if err != nil {
		t.Fatal(err)
	}
	r := ExpFigure3(fig2)
	if len(r.Bands) == 0 {
		t.Fatal("no bands")
	}
	for _, b := range r.Bands {
		if b.Min < 1-1e-9 {
			t.Errorf("MCKP/STATIC min %v below parity at %d IONs", b.Min, b.Pool)
		}
	}
	if r.PeakMedian < 1.5 {
		t.Errorf("peak median %v too small", r.PeakMedian)
	}
	if r.OverallMax < r.PeakMedian {
		t.Error("max below median")
	}
	r.Table()
}

func TestExpFigure5(t *testing.T) {
	r := ExpFigure5()
	if len(r.Apps) != 9 {
		t.Fatalf("apps: %d", len(r.Apps))
	}
	s := r.Table().String()
	for _, label := range []string{"BT-C", "HACC", "S3D"} {
		if !strings.Contains(s, label) {
			t.Errorf("table missing %s", label)
		}
	}
}

func TestExpFigure6PaperClaims(t *testing.T) {
	r, err := ExpFigure6()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MCKPOverStatic12-4.59) > 0.02 {
		t.Errorf("MCKP/STATIC@12 = %.3f, paper 4.59", r.MCKPOverStatic12)
	}
	if math.Abs(r.MCKPOverSize12-4.59) > 0.02 {
		t.Errorf("MCKP/SIZE@12 = %.3f, paper 4.59", r.MCKPOverSize12)
	}
	if math.Abs(r.MCKPOverProcess12-4.1) > 0.02 {
		t.Errorf("MCKP/PROCESS@12 = %.3f, paper 4.1", r.MCKPOverProcess12)
	}
	if r.OracleMatchPool != 36 {
		t.Errorf("MCKP matches ORACLE at %d IONs, paper says 36", r.OracleMatchPool)
	}
	r.Table()
}

func TestExpTable4PaperAllocations(t *testing.T) {
	r, err := ExpTable4()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int{
		"STATIC": {"BT-C": 1, "BT-D": 2, "IOR-MPI": 1, "POSIX-L": 2, "MAD": 1, "S3D": 2},
		"SIZE":   {"BT-C": 1, "BT-D": 2, "IOR-MPI": 1, "POSIX-L": 2, "MAD": 1, "S3D": 2},
		"MCKP":   {"BT-C": 0, "BT-D": 1, "IOR-MPI": 8, "POSIX-L": 2, "MAD": 0, "S3D": 0},
	}
	for _, row := range r.Rows {
		for pol, alloc := range want {
			if row.IONs[pol] != alloc[row.App] {
				t.Errorf("%s under %s: %d IONs, Table 4 says %d", row.App, pol, row.IONs[pol], alloc[row.App])
			}
		}
	}
	// Table 4 bandwidth anchors.
	for _, row := range r.Rows {
		if row.App == "IOR-MPI" && math.Abs(row.MBps["MCKP"]-5089.9) > 0.1 {
			t.Errorf("IOR-MPI MCKP bandwidth %.1f, want 5089.9", row.MBps["MCKP"])
		}
	}
	r.Table()
}

func TestExpFigure7(t *testing.T) {
	r, err := ExpFigure7()
	if err != nil {
		t.Fatal(err)
	}
	// With 4 IONs, IOR-MPI and S3D achieve exactly their alone-best
	// (paper §5.2).
	if pct := r.Pct[4]["IOR-MPI"]; math.Abs(pct-100) > 0.01 {
		t.Errorf("IOR-MPI at 4 IONs: %.1f%%, paper says 100%%", pct)
	}
	if pct := r.Pct[4]["S3D"]; math.Abs(pct-100) > 0.01 {
		t.Errorf("S3D at 4 IONs: %.1f%%, paper says 100%%", pct)
	}
	// Percentages never exceed 100 (alone under the same constraint is
	// an upper bound).
	for pool, per := range r.Pct {
		for app, pct := range per {
			if pct > 100.000001 {
				t.Errorf("%s at %d IONs exceeds alone-best: %.2f%%", app, pool, pct)
			}
		}
	}
	// At the ORACLE pool (36) everyone achieves 100%.
	for app, pct := range r.Pct[36] {
		if math.Abs(pct-100) > 0.01 {
			t.Errorf("%s at 36 IONs: %.1f%%, want 100%%", app, pct)
		}
	}
	r.Table()
}

func TestExpFigure8(t *testing.T) {
	r, err := ExpFigure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DeltaMBps) == 0 {
		t.Fatal("no pools computed")
	}
	// The paper: MCKP sacrifices BT-D (negative delta) at moderate pools
	// while the total delta stays positive.
	for pool, deltas := range r.DeltaMBps {
		var total float64
		for _, dv := range deltas {
			total += dv
		}
		if total < -1e-6 {
			t.Errorf("total delta at %d IONs is negative: %v", pool, total)
		}
	}
	foundSacrifice := false
	for _, deltas := range r.DeltaMBps {
		if deltas["BT-D"] < 0 {
			foundSacrifice = true
		}
	}
	if !foundSacrifice {
		t.Error("expected BT-D to be sacrificed at some pool (paper §5.2)")
	}
	r.Table()
}

func TestExpFigure9(t *testing.T) {
	r, err := ExpFigure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.JobIDs) != 14 {
		t.Fatalf("jobs: %d", len(r.JobIDs))
	}
	if r.MCKPOverStatic < 1.3 {
		t.Errorf("MCKP/STATIC = %.2f, paper reports ≈1.9", r.MCKPOverStatic)
	}
	order := []string{"ONE", "STATIC", "SIZE", "MCKP"}
	prev := -1.0
	for _, p := range order {
		if r.AggregateMBps[p] < prev {
			t.Errorf("aggregate ordering violated at %s: %v", p, r.AggregateMBps)
		}
		prev = r.AggregateMBps[p]
	}
	r.Table()
}

func TestExpSolverTiming(t *testing.T) {
	r, err := ExpSolverTiming()
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveCase <= 0 || r.PaperScale <= 0 {
		t.Fatalf("timings: %+v", r)
	}
	// Our DP at paper scale should comfortably beat the paper's 2.7 s.
	if r.PaperScale.Seconds() > 2.7 {
		t.Errorf("512×256 solve took %v, paper reports 2.7s", r.PaperScale)
	}
	r.Table()
}

func TestExpPolicyHeadlines(t *testing.T) {
	fig2, err := smallCampaign()
	if err != nil {
		t.Fatal(err)
	}
	h := ExpPolicyHeadlines(fig2)
	if h.Sets != 150 {
		t.Fatalf("sets: %d", h.Sets)
	}
	if h.OneVsZeroMedianSlowdownPct <= 0 {
		t.Error("ONE should be a slowdown versus ZERO")
	}
	if h.OracleVsZeroMinBoostPct < 0 {
		t.Error("ORACLE should never lose to ZERO")
	}
	h.Table()
}
