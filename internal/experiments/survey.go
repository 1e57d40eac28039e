package experiments

import (
	"sort"

	"repro/internal/forge"
	"repro/internal/pattern"
	"repro/internal/perfmodel"
)

// Table1Row is one supercomputer of the paper's Table 1.
type Table1Row struct {
	Rank         int
	Name         string
	ComputeNodes int
	IONodes      int
}

// Table1Result reproduces Table 1 (machines known to use I/O forwarding).
type Table1Result struct{ Rows []Table1Row }

// ExpTable1 returns the paper's Table 1 (static literature data; included
// for completeness of the regeneration harness).
func ExpTable1() Table1Result {
	return Table1Result{Rows: []Table1Row{
		{Rank: 4, Name: "Sunway TaihuLight", ComputeNodes: 40960, IONodes: 240},
		{Rank: 5, Name: "Tianhe-2A", ComputeNodes: 16000, IONodes: 256},
		{Rank: 10, Name: "Piz Daint", ComputeNodes: 6751, IONodes: 54},
		{Rank: 11, Name: "Trinity", ComputeNodes: 19420, IONodes: 576},
	}}
}

// Table renders the result.
func (r Table1Result) Table() Table {
	t := Table{
		Title:  "Table 1 — Top500 machines using I/O forwarding (June 2020)",
		Header: []string{"Rank", "Supercomputer", "Compute Nodes", "I/O Nodes"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.Rank), row.Name, d(row.ComputeNodes), d(row.IONodes)})
	}
	return t
}

// Figure1Result holds the modeled bandwidth of the eight Table 2 patterns
// across ION counts.
type Figure1Result struct {
	// Labels in Table 2 order.
	Labels []string
	// Patterns by label.
	Patterns map[string]pattern.Pattern
	// MBps[label][ions] is the modeled client-side bandwidth.
	MBps map[string]map[int]float64
	// BestIONs[label] is the argmax of the curve.
	BestIONs map[string]int
}

// ExpFigure1 evaluates the performance model over the Figure 1 patterns.
func ExpFigure1() Figure1Result {
	m := perfmodel.Default()
	pats := pattern.Figure1Patterns()
	res := Figure1Result{
		Patterns: pats,
		MBps:     map[string]map[int]float64{},
		BestIONs: map[string]int{},
	}
	for label := range pats {
		res.Labels = append(res.Labels, label)
	}
	sort.Strings(res.Labels)
	for _, label := range res.Labels {
		c := m.CurveFor(pats[label], 8, true)
		series := map[int]float64{}
		for _, pt := range c.Points() {
			series[pt.IONs] = pt.Bandwidth.MBps()
		}
		res.MBps[label] = series
		res.BestIONs[label] = c.Best().IONs
	}
	return res
}

// Table renders the result.
func (r Figure1Result) Table() Table {
	t := Table{
		Title:  "Figure 1 / Table 2 — bandwidth (MB/s) of write patterns vs I/O nodes",
		Header: []string{"Pattern", "Geometry", "0", "1", "2", "4", "8", "Best"},
	}
	for _, label := range r.Labels {
		row := []string{label, r.Patterns[label].String()}
		for _, k := range []int{0, 1, 2, 4, 8} {
			row = append(row, f1(r.MBps[label][k]))
		}
		row = append(row, d(r.BestIONs[label]))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// OptimumDistributionResult is the §2 statistic: the share of the 189
// survey scenarios whose best bandwidth occurs at each ION count.
type OptimumDistributionResult struct {
	// SharePct[ions] is the measured percentage.
	SharePct map[int]float64
	// PaperPct is the paper's reported distribution.
	PaperPct map[int]float64
	Total    int
}

// ExpOptimumDistribution computes the distribution over the model's survey.
func ExpOptimumDistribution() OptimumDistributionResult {
	dist := perfmodel.OptimumDistribution(perfmodel.Default().SurveyCurves())
	res := OptimumDistributionResult{
		SharePct: map[int]float64{},
		PaperPct: map[int]float64{0: 33, 1: 6, 2: 44, 4: 8, 8: 9},
		Total:    189,
	}
	for k, v := range dist {
		res.SharePct[k] = v * 100
	}
	return res
}

// Table renders the result.
func (r OptimumDistributionResult) Table() Table {
	t := Table{
		Title:  "§2 — distribution of the optimal I/O-node count over the 189 scenarios",
		Header: []string{"I/O nodes", "Measured %", "Paper %"},
	}
	for _, k := range []int{0, 1, 2, 4, 8} {
		t.Rows = append(t.Rows, []string{d(k), f1(r.SharePct[k]), f1(r.PaperPct[k])})
	}
	return t
}

// Figure2Result holds the median aggregate bandwidth per policy per pool.
type Figure2Result struct {
	Campaign *forge.Campaign
	// GBps[policy][pool] is the median aggregated bandwidth.
	GBps     map[string]map[int]float64
	Policies []string
	Pools    []int
}

// ExpFigure2 runs the forge campaign (sets × policies × pools). sets ≤ 0
// selects the paper's 10,000. workers bounds the campaign's worker pool
// (≤ 0 selects GOMAXPROCS); every worker count yields identical tables.
func ExpFigure2(sets, workers int) (Figure2Result, error) {
	cfg := forge.DefaultConfig()
	if sets > 0 {
		cfg.Sets = sets
	}
	cfg.Workers = workers
	camp, err := forge.Run(cfg)
	if err != nil {
		return Figure2Result{}, err
	}
	return Figure2Result{
		Campaign: camp,
		GBps:     camp.MedianSeries(),
		Policies: camp.Policies,
		Pools:    cfg.PoolSizes,
	}, nil
}

// Table renders the result.
func (r Figure2Result) Table() Table {
	t := Table{
		Title:  "Figure 2 — median aggregated bandwidth (GB/s) of 16-application sets",
		Header: []string{"IONs"},
	}
	t.Header = append(t.Header, r.Policies...)
	for _, pool := range r.Pools {
		row := []string{d(pool)}
		for _, p := range r.Policies {
			if v, ok := r.GBps[p][pool]; ok {
				row = append(row, f2(v))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure3Result holds the MCKP÷STATIC improvement bands.
type Figure3Result struct {
	Bands []forge.RatioBand
	// PeakMedian and PeakPool locate the largest median improvement.
	PeakMedian float64
	PeakPool   int
	// OverallMax and OverallMean summarize all ratios (paper: 23.75×
	// max, 2.6× mean).
	OverallMax  float64
	OverallMean float64
}

// ExpFigure3 derives the Figure 3 bands from the Figure 2 campaign result
// (avoids rerunning the campaign).
func ExpFigure3(fig2 Figure2Result) Figure3Result {
	res := Figure3Result{Bands: fig2.Campaign.RatioSeries("MCKP", "STATIC")}
	var sum float64
	var n int
	for _, b := range res.Bands {
		if b.Median > res.PeakMedian {
			res.PeakMedian, res.PeakPool = b.Median, b.Pool
		}
		if b.Max > res.OverallMax {
			res.OverallMax = b.Max
		}
		sum += b.Mean
		n++
	}
	if n > 0 {
		res.OverallMean = sum / float64(n)
	}
	return res
}

// Table renders the result.
func (r Figure3Result) Table() Table {
	t := Table{
		Title:  "Figure 3 — MCKP over STATIC aggregate-bandwidth ratio",
		Header: []string{"IONs", "Min", "Median", "Max", "Mean", "Sets<1.0"},
	}
	for _, b := range r.Bands {
		t.Rows = append(t.Rows, []string{
			d(b.Pool), f2(b.Min), f2(b.Median), f2(b.Max), f2(b.Mean), d(b.SetsBelowParityCount),
		})
	}
	return t
}
