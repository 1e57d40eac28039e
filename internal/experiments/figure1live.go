package experiments

import (
	"fmt"
	"sort"

	"repro/internal/forge"
	"repro/internal/livestack"
	"repro/internal/pattern"
	"repro/internal/units"
)

// Figure1LiveResult is the live counterpart of Figure 1: the eight Table 2
// patterns replayed as FORGE profiles through real TCP I/O-node daemons,
// at geometry scaled down by GeometryScale and the given per-pattern
// volume. Absolute numbers are laptop numbers; the point is that the same
// pattern taxonomy runs end to end on the real stack.
type Figure1LiveResult struct {
	Labels []string
	// MBps[label][ions] is the measured client-side bandwidth.
	MBps map[string]map[int]float64
	// Geometry notes the scaled nodes×ppn used per label.
	Geometry map[string]string
	// GeometryScale divides Table 2's nodes and processes-per-node.
	GeometryScale int
	VolumeBytes   int64
}

// ExpFigure1Live replays the Figure 1 patterns live. scale ≤ 0 selects 4
// (pattern A becomes 8 nodes × 12 processes); volume ≤ 0 selects 8 MiB per
// pattern per ION count.
func ExpFigure1Live(scale int, volume int64) (Figure1LiveResult, error) {
	if scale <= 0 {
		scale = 4
	}
	if volume <= 0 {
		volume = 8 * units.MiB
	}
	res := Figure1LiveResult{
		MBps:          map[string]map[int]float64{},
		Geometry:      map[string]string{},
		GeometryScale: scale,
		VolumeBytes:   volume,
	}
	st, err := livestack.Start(livestack.Config{IONs: 8})
	if err != nil {
		return res, err
	}
	defer st.Close()

	pats := pattern.Figure1Patterns()
	for label := range pats {
		res.Labels = append(res.Labels, label)
	}
	sort.Strings(res.Labels)
	for _, label := range res.Labels {
		p := pats[label]
		p.Nodes = max(1, p.Nodes/scale)
		p.ProcsPerNod = max(1, p.ProcsPerNod/scale)
		res.Geometry[label] = fmt.Sprintf("%dn×%dp", p.Nodes, p.ProcsPerNod)
		runs, err := forge.ReplaySweep(st.Store, st.Addrs, p, volume, "/f1live/"+label)
		if err != nil {
			return res, fmt.Errorf("experiments: figure1live %s: %w", label, err)
		}
		series := map[int]float64{}
		for _, r := range runs {
			series[r.IONs] = r.Bandwidth.MBps()
		}
		res.MBps[label] = series
	}
	return res, nil
}

// Table renders the result.
func (r Figure1LiveResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Figure 1 (live) — Table 2 patterns replayed on the TCP stack (geometry ÷%d, %s per run)",
			r.GeometryScale, units.FormatBytes(r.VolumeBytes)),
		Header: []string{"Pattern", "Geometry", "0", "1", "2", "4", "8"},
	}
	for _, label := range r.Labels {
		row := []string{label, r.Geometry[label]}
		for _, k := range []int{0, 1, 2, 4, 8} {
			if v, ok := r.MBps[label][k]; ok {
				row = append(row, f1(v))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
