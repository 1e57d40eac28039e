package perfmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/units"
)

func TestNewCurveSortsAndDedups(t *testing.T) {
	c := NewCurve(
		Point{IONs: 4, Bandwidth: 40},
		Point{IONs: 0, Bandwidth: 10},
		Point{IONs: 4, Bandwidth: 44}, // duplicate: keeps last
		Point{IONs: 2, Bandwidth: 20},
	)
	if c.Len() != 3 {
		t.Fatalf("want 3 points, got %d (%v)", c.Len(), c)
	}
	pts := c.Points()
	if pts[0].IONs != 0 || pts[1].IONs != 2 || pts[2].IONs != 4 {
		t.Fatalf("points not sorted: %v", pts)
	}
	if bw, ok := c.At(4); !ok || bw != 44 {
		t.Fatalf("duplicate should keep last value, got %v %v", bw, ok)
	}
}

func TestCurveAt(t *testing.T) {
	c := NewCurve(Point{IONs: 0, Bandwidth: 5}, Point{IONs: 8, Bandwidth: 80})
	if bw, ok := c.At(0); !ok || bw != 5 {
		t.Fatalf("At(0): %v %v", bw, ok)
	}
	if _, ok := c.At(3); ok {
		t.Fatal("At(3) should be missing")
	}
	if bw, ok := c.At(8); !ok || bw != 80 {
		t.Fatalf("At(8): %v %v", bw, ok)
	}
}

func TestCurveBestTieBreaksLow(t *testing.T) {
	c := NewCurve(
		Point{IONs: 1, Bandwidth: 100},
		Point{IONs: 2, Bandwidth: 100},
		Point{IONs: 4, Bandwidth: 99},
	)
	if got := c.Best(); got.IONs != 1 {
		t.Fatalf("tie should go to smaller ION count, got %+v", got)
	}
	var empty Curve
	if got := empty.Best(); got.IONs != 0 || got.Bandwidth != 0 {
		t.Fatalf("empty curve Best should be zero, got %+v", got)
	}
}

func TestCurveRestrict(t *testing.T) {
	c := NewCurve(
		Point{IONs: 0, Bandwidth: 1},
		Point{IONs: 2, Bandwidth: 2},
		Point{IONs: 8, Bandwidth: 8},
	)
	r := c.Restrict(4)
	if r.Len() != 2 {
		t.Fatalf("restrict: %v", r)
	}
	if _, ok := r.At(8); ok {
		t.Fatal("restricted curve still has 8-ION point")
	}
	// Original unchanged.
	if c.Len() != 3 {
		t.Fatal("Restrict mutated the receiver")
	}
}

func TestCurveForwardedDropsOnlyTheDirectPoint(t *testing.T) {
	c := NewCurve(
		Point{IONs: 0, Bandwidth: 9},
		Point{IONs: 1, Bandwidth: 1},
		Point{IONs: 2, Bandwidth: 2},
	)
	f := c.Forwarded()
	if _, ok := f.At(0); ok || f.Len() != 2 {
		t.Fatalf("Forwarded() = %v, want the 1- and 2-ION points", f)
	}
	if c.Len() != 3 || f.Forwarded().Len() != 2 {
		t.Fatal("Forwarded mutated the receiver or is not idempotent")
	}
}

func TestCurveForUsesPatternOptions(t *testing.T) {
	m := Default()
	p := pattern.Pattern{Nodes: 12, ProcsPerNod: 12, Layout: pattern.SharedFile,
		Spatiality: pattern.Contiguous, RequestSize: units.MiB, Operation: pattern.Write}
	c := m.CurveFor(p, 8, true)
	// 12 nodes: options are 0,1,2,4 (8 does not divide 12).
	if c.Len() != 4 {
		t.Fatalf("want 4 options for 12 nodes, got %v", c)
	}
	if _, ok := c.At(8); ok {
		t.Fatal("8 IONs must not be an option for a 12-node job")
	}
}

func TestCurveBestIsMaxProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, 0, len(raw))
		for i, v := range raw {
			pts = append(pts, Point{IONs: i, Bandwidth: units.Bandwidth(v)})
		}
		c := NewCurve(pts...)
		best := c.Best()
		for _, pt := range c.Points() {
			if pt.Bandwidth > best.Bandwidth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimumDistributionSums(t *testing.T) {
	curves := []Curve{
		NewCurve(Point{0, 10}, Point{2, 5}),
		NewCurve(Point{0, 1}, Point{2, 5}),
		NewCurve(Point{0, 1}, Point{2, 5}),
		NewCurve(Point{0, 1}, Point{8, 5}),
	}
	dist := OptimumDistribution(curves)
	if dist[0] != 0.25 || dist[2] != 0.5 || dist[8] != 0.25 {
		t.Fatalf("distribution wrong: %v", dist)
	}
}

func TestCurveString(t *testing.T) {
	c := NewCurve(Point{IONs: 0, Bandwidth: units.BandwidthFromMBps(241.3)})
	if got := c.String(); got != "0:241.3" {
		t.Fatalf("String: %q", got)
	}
}
