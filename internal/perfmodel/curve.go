package perfmodel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/units"
)

// Point is one measurement of a bandwidth curve: the bandwidth achieved
// with a given number of I/O forwarding nodes.
type Point struct {
	IONs      int
	Bandwidth units.Bandwidth
}

// Curve is an application's (or pattern's) bandwidth as a function of the
// number of I/O nodes — the per-class item list fed to the MCKP policy.
// Points are kept sorted by ION count and unique.
type Curve struct {
	points []Point
}

// NewCurve builds a curve from points; duplicates (same ION count) keep the
// last value. The input is not retained.
func NewCurve(points ...Point) Curve {
	byION := make(map[int]units.Bandwidth, len(points))
	for _, pt := range points {
		byION[pt.IONs] = pt.Bandwidth
	}
	out := make([]Point, 0, len(byION))
	for k, bw := range byION {
		out = append(out, Point{IONs: k, Bandwidth: bw})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IONs < out[j].IONs })
	return Curve{points: out}
}

// Points returns a copy of the curve's points, sorted by ION count.
func (c Curve) Points() []Point { return append([]Point(nil), c.points...) }

// Len returns the number of points.
func (c Curve) Len() int { return len(c.points) }

// Point returns the i-th point in ION order, 0 ≤ i < Len(), without
// copying the curve.
func (c Curve) Point(i int) Point { return c.points[i] }

// At returns the bandwidth at exactly k I/O nodes and whether the curve has
// a point there.
func (c Curve) At(k int) (units.Bandwidth, bool) {
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].IONs >= k })
	if i < len(c.points) && c.points[i].IONs == k {
		return c.points[i].Bandwidth, true
	}
	return 0, false
}

// Best returns the point with the highest bandwidth (the ORACLE choice).
// Ties go to the smaller ION count. Zero Point for an empty curve.
func (c Curve) Best() Point {
	var best Point
	for i, pt := range c.points {
		if i == 0 || pt.Bandwidth > best.Bandwidth {
			best = pt
		}
	}
	return best
}

// Restrict returns a copy of the curve keeping only points whose ION count
// is at most maxIONs.
func (c Curve) Restrict(maxIONs int) Curve {
	out := make([]Point, 0, len(c.points))
	for _, pt := range c.points {
		if pt.IONs <= maxIONs {
			out = append(out, pt)
		}
	}
	return Curve{points: out}
}

// Forwarded returns a copy of the curve without its 0-ION point: the
// options of an application that may not access the PFS directly, as in
// the paper's §5.3 queue.
func (c Curve) Forwarded() Curve {
	out := make([]Point, 0, len(c.points))
	for _, pt := range c.points {
		if pt.IONs > 0 {
			out = append(out, pt)
		}
	}
	return Curve{points: out}
}

// String renders the curve as "0:241.3 1:60.0 ..." in MB/s.
func (c Curve) String() string {
	var b strings.Builder
	for i, pt := range c.points {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.1f", pt.IONs, pt.Bandwidth.MBps())
	}
	return b.String()
}

// curveKey identifies one memoized CurveFor evaluation.
type curveKey struct {
	pat       pattern.Pattern
	maxIONs   int
	allowZero bool
}

// CurveFor evaluates the model at each of the standard ION options for the
// pattern (0, and powers of two dividing the node count up to maxIONs) and
// returns the resulting curve. Results are memoized per model: the model is
// deterministic in (pattern, maxIONs, allowZero), and campaign runs
// re-evaluate the same 189 survey scenarios constantly. Safe for concurrent
// use.
func (m *Model) CurveFor(pat pattern.Pattern, maxIONs int, allowZero bool) Curve {
	key := curveKey{pat: pat, maxIONs: maxIONs, allowZero: allowZero}
	if v, ok := m.curves.Load(key); ok {
		return v.(Curve)
	}
	opts := pattern.IONOptions(pat.Nodes, maxIONs, allowZero)
	pts := make([]Point, 0, len(opts))
	for _, k := range opts {
		pts = append(pts, Point{IONs: k, Bandwidth: m.Bandwidth(pat, k)})
	}
	c := NewCurve(pts...)
	m.curves.Store(key, c)
	return c
}

// SurveyCurves evaluates the model over the full 189-scenario MN4 survey
// with the paper's option set {0,1,2,4,8}. The sweep is computed once per
// model and memoized; callers receive a fresh slice over the shared
// immutable curves. Safe for concurrent use.
func (m *Model) SurveyCurves() []Curve {
	m.surveyOnce.Do(func() {
		pats := pattern.MN4Survey()
		m.survey = make([]Curve, len(pats))
		for i, p := range pats {
			m.survey[i] = m.CurveFor(p, 8, true)
		}
	})
	return append([]Curve(nil), m.survey...)
}

// OptimumDistribution returns, for each ION option, the fraction of curves
// whose best bandwidth is achieved at that option.
func OptimumDistribution(curves []Curve) map[int]float64 {
	counts := make(map[int]int)
	for _, c := range curves {
		counts[c.Best().IONs]++
	}
	out := make(map[int]float64, len(counts))
	for k, n := range counts {
		out[k] = float64(n) / float64(len(curves))
	}
	return out
}
