package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// fillFamily creates n labeled counters of family base, the label values
// 0..n-1.
func fillFamily(reg *Registry, base string, n int) {
	for i := 0; i < n; i++ {
		reg.Counter(fmt.Sprintf(`%s{a="%d"}`, base, i)).Inc()
	}
}

// TestSeriesCapCoalescesOverflow: past the per-family cap, new label sets
// collapse into the family's overflow series so the registry stays
// bounded but no increment is lost.
func TestSeriesCapCoalescesOverflow(t *testing.T) {
	reg := New()
	fillFamily(reg, "ops_total", DefaultMaxSeriesPerBase+6)
	snap := reg.Snapshot()
	var series int
	var total int64
	for name, v := range snap.Counters {
		if baseName(name) == "ops_total" {
			series++
			total += v
		}
	}
	if series != DefaultMaxSeriesPerBase+1 { // the admitted label sets + the overflow series
		t.Fatalf("ops_total family holds %d series, want %d", series, DefaultMaxSeriesPerBase+1)
	}
	if got := snap.Counters[`ops_total{overflow="true"}`]; got != 6 {
		t.Fatalf("overflow series = %d, want the 6 coalesced increments", got)
	}
	if total != DefaultMaxSeriesPerBase+6 {
		t.Fatalf("family total = %d, want all %d increments preserved", total, DefaultMaxSeriesPerBase+6)
	}
}

// TestSeriesCapSharedAcrossKinds: the cap counts a family's label sets
// across counters, gauges, and histograms together — splitting a family
// over kinds is not a way around the bound.
func TestSeriesCapSharedAcrossKinds(t *testing.T) {
	reg := New()
	fillFamily(reg, "q_depth", DefaultMaxSeriesPerBase-1)
	reg.Gauge(`q_depth{ion="b"}`)
	h := reg.Histogram(`q_depth{ion="c"}`, []float64{1})
	h.Observe(0.5)
	snap := reg.Snapshot()
	if _, ok := snap.Gauges[`q_depth{ion="b"}`]; !ok {
		t.Fatalf("the gauge filling the last slot should be admitted: %v", snap.Gauges)
	}
	if _, ok := snap.Histograms[`q_depth{overflow="true"}`]; !ok {
		t.Fatalf("third kind should have coalesced: %v", snap.Histograms)
	}
}

// TestSeriesCapNeverTouchesUnlabeled: unlabeled series are code-driven,
// not input-driven, and must never be coalesced or counted.
func TestSeriesCapNeverTouchesUnlabeled(t *testing.T) {
	reg := New()
	fillFamily(reg, "ops_total", DefaultMaxSeriesPerBase)
	reg.Counter("ops_total").Inc() // unlabeled, same family name
	reg.Counter("other_total").Inc()
	snap := reg.Snapshot()
	if snap.Counters["ops_total"] != 1 || snap.Counters["other_total"] != 1 {
		t.Fatal("unlabeled series affected by the cap")
	}
	for name := range snap.Counters {
		if strings.Contains(name, "overflow") {
			t.Fatalf("no overflow expected at exactly the cap, got %s", name)
		}
	}
}

// TestSeriesCapStableHandles: the overflow series is one shared handle —
// two coalesced callers increment the same counter.
func TestSeriesCapStableHandles(t *testing.T) {
	reg := New()
	fillFamily(reg, "x_total", DefaultMaxSeriesPerBase)
	c1 := reg.Counter(`x_total{a="over-1"}`)
	c2 := reg.Counter(`x_total{a="over-2"}`)
	if c1 != c2 {
		t.Fatal("coalesced series should share one counter")
	}
	// Existing series keep their identity even once the family is full.
	if reg.Counter(`x_total{a="0"}`) == c1 {
		t.Fatal("pre-cap series must not be rerouted to overflow")
	}
}
