package experiments

import (
	"fmt"
	"sort"

	"repro/internal/forge"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

// fiveTwoApps converts the §5.2 six-application set.
func fiveTwoApps() []policy.Application {
	specs := perfmodel.SectionFiveTwoApps()
	apps := make([]policy.Application, 0, len(specs))
	for _, s := range specs {
		apps = append(apps, policy.FromAppSpec(s.Label, s))
	}
	return apps
}

// Figure5Result holds the per-application bandwidth curves (Table 3 apps).
type Figure5Result struct {
	Apps []perfmodel.AppSpec
}

// ExpFigure5 returns the evaluation applications' curves (digitized from
// the paper's measurements; the live-stack variant is in the livestack
// package's example and tests).
func ExpFigure5() Figure5Result {
	return Figure5Result{Apps: perfmodel.EvaluationApps()}
}

// Table renders the result.
func (r Figure5Result) Table() Table {
	t := Table{
		Title:  "Figure 5 / Table 3 — application bandwidth (MB/s) vs I/O nodes",
		Header: []string{"App", "Nodes", "Procs", "Write GB", "Read GB", "0", "1", "2", "4", "8", "Best"},
	}
	for _, a := range r.Apps {
		row := []string{a.Label, d(a.Nodes), d(a.Processes),
			f1(float64(a.WriteBytes) / 1e9), f1(float64(a.ReadBytes) / 1e9)}
		for _, k := range []int{0, 1, 2, 4, 8} {
			bw, _ := a.Curve.At(k)
			row = append(row, f1(bw.MBps()))
		}
		row = append(row, d(a.Curve.Best().IONs))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure6Result holds the aggregated bandwidth of the six §5.2 apps for
// each policy across available-ION counts.
type Figure6Result struct {
	Pools    []int
	Policies []string
	// GBps[policy][pool]; missing entries mean not applicable.
	GBps map[string]map[int]float64
	// MCKPOverStatic12 etc. are the paper's headline ratios at 12 IONs.
	MCKPOverStatic12  float64
	MCKPOverSize12    float64
	MCKPOverProcess12 float64
	// OracleMatchPool is the smallest pool where MCKP equals ORACLE.
	OracleMatchPool int
}

// ExpFigure6 evaluates the §5.2 allocation decisions.
func ExpFigure6() (Figure6Result, error) {
	apps := fiveTwoApps()
	pools := []int{4, 8, 12, 16, 20, 24, 28, 32, 36}
	res := Figure6Result{Pools: pools, GBps: map[string]map[int]float64{}}
	for _, p := range forge.Policies() {
		res.Policies = append(res.Policies, p.Name())
		series := map[int]float64{}
		for _, pool := range pools {
			alloc, err := p.Allocate(apps, pool)
			if err != nil {
				continue
			}
			bw, err := policy.SumBandwidth(apps, alloc)
			if err != nil {
				return res, fmt.Errorf("experiments: Figure 6 %s@%d: %w", p.Name(), pool, err)
			}
			series[pool] = bw.GBps()
		}
		res.GBps[p.Name()] = series
	}
	res.MCKPOverStatic12 = res.GBps["MCKP"][12] / res.GBps["STATIC"][12]
	res.MCKPOverSize12 = res.GBps["MCKP"][12] / res.GBps["SIZE"][12]
	res.MCKPOverProcess12 = res.GBps["MCKP"][12] / res.GBps["PROCESS"][12]
	oracle := res.GBps["ORACLE"][36]
	for _, pool := range pools {
		if v, ok := res.GBps["MCKP"][pool]; ok && v >= oracle*(1-1e-9) {
			res.OracleMatchPool = pool
			break
		}
	}
	return res, nil
}

// Table renders the result.
func (r Figure6Result) Table() Table {
	t := Table{
		Title:  "Figure 6 — aggregated bandwidth (GB/s) of the six §5.2 applications",
		Header: append([]string{"IONs"}, r.Policies...),
	}
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

// Table4Row is one application's allocation and bandwidth under a policy.
type Table4Row struct {
	App  string
	IONs map[string]int     // policy → allocated I/O nodes
	MBps map[string]float64 // policy → bandwidth
}

// Table4Result reproduces the paper's Table 4 (12 available I/O nodes).
type Table4Result struct {
	Policies []string
	Rows     []Table4Row
	// TotalMBps[policy] is the aggregate.
	TotalMBps map[string]float64
}

// ExpTable4 computes allocations at 12 I/O nodes under STATIC, SIZE, MCKP.
func ExpTable4() (Table4Result, error) {
	apps := fiveTwoApps()
	pols := []policy.Policy{policy.Static{}, policy.Proportional{}, policy.MCKP{}}
	res := Table4Result{TotalMBps: map[string]float64{}}
	rows := map[string]*Table4Row{}
	order := []string{"BT-C", "BT-D", "IOR-MPI", "POSIX-L", "MAD", "S3D"}
	for _, id := range order {
		rows[id] = &Table4Row{App: id, IONs: map[string]int{}, MBps: map[string]float64{}}
	}
	for _, p := range pols {
		res.Policies = append(res.Policies, p.Name())
		alloc, err := p.Allocate(apps, 12)
		if err != nil {
			return res, fmt.Errorf("experiments: Table 4 %s: %w", p.Name(), err)
		}
		for _, a := range apps {
			bw, ok := a.Curve.At(alloc[a.ID])
			if !ok {
				return res, fmt.Errorf("experiments: Table 4 %s: no point at %d", a.ID, alloc[a.ID])
			}
			rows[a.ID].IONs[p.Name()] = alloc[a.ID]
			rows[a.ID].MBps[p.Name()] = bw.MBps()
			res.TotalMBps[p.Name()] += bw.MBps()
		}
	}
	for _, id := range order {
		res.Rows = append(res.Rows, *rows[id])
	}
	return res, nil
}

// Table renders the result.
func (r Table4Result) Table() Table {
	t := Table{
		Title:  "Table 4 — allocations and bandwidth with 12 I/O nodes",
		Header: []string{"App"},
	}
	for _, p := range r.Policies {
		t.Header = append(t.Header, p+" IONs", p+" MB/s")
	}
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, p := range r.Policies {
			cells = append(cells, d(row.IONs[p]), f1(row.MBps[p]))
		}
		t.Rows = append(t.Rows, cells)
	}
	total := []string{"TOTAL"}
	for _, p := range r.Policies {
		total = append(total, "", f1(r.TotalMBps[p]))
	}
	t.Rows = append(t.Rows, total)
	return t
}

// Figure7Result reports each application's bandwidth under MCKP as a
// percentage of the best it could achieve running alone with the same
// number of available I/O nodes.
type Figure7Result struct {
	Pools []int
	Apps  []string
	// Pct[pool][app].
	Pct map[int]map[string]float64
	// Alloc[pool][app] is the MCKP allocation behind each percentage.
	Alloc map[int]map[string]int
}

// ExpFigure7 computes the §5.2 penalty analysis (the paper shows pools 1,
// 2, 4, 7, 16, 18, 22, 36).
func ExpFigure7() (Figure7Result, error) {
	apps := fiveTwoApps()
	pools := []int{1, 2, 4, 7, 16, 18, 22, 36}
	res := Figure7Result{Pools: pools, Pct: map[int]map[string]float64{}, Alloc: map[int]map[string]int{}}
	for _, a := range apps {
		res.Apps = append(res.Apps, a.ID)
	}
	sort.Strings(res.Apps)
	mckp := policy.MCKP{}
	for _, pool := range pools {
		alloc, err := mckp.Allocate(apps, pool)
		if err != nil {
			return res, fmt.Errorf("experiments: Figure 7 pool %d: %w", pool, err)
		}
		res.Pct[pool] = map[string]float64{}
		res.Alloc[pool] = map[string]int{}
		for _, a := range apps {
			got, ok := a.Curve.At(alloc[a.ID])
			if !ok {
				return res, fmt.Errorf("experiments: Figure 7 %s: no point at %d", a.ID, alloc[a.ID])
			}
			// Best the app could do alone under the same pool limit.
			alone := a.Curve.Restrict(pool).Best().Bandwidth
			pct := 0.0
			if alone > 0 {
				pct = 100 * float64(got) / float64(alone)
			}
			res.Pct[pool][a.ID] = pct
			res.Alloc[pool][a.ID] = alloc[a.ID]
		}
	}
	return res, nil
}

// Table renders the result.
func (r Figure7Result) Table() Table {
	t := Table{
		Title:  "Figure 7 — % of alone-bandwidth achieved under MCKP",
		Header: append([]string{"IONs"}, r.Apps...),
	}
	for _, pool := range r.Pools {
		row := []string{d(pool)}
		for _, app := range r.Apps {
			row = append(row, f1(r.Pct[pool][app]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure8Result reports per-application bandwidth deltas between MCKP and
// STATIC (positive: MCKP faster).
type Figure8Result struct {
	Pools []int
	Apps  []string
	// DeltaMBps[pool][app] = MCKP − STATIC.
	DeltaMBps map[int]map[string]float64
}

// ExpFigure8 computes the per-application STATIC-vs-MCKP differences.
func ExpFigure8() (Figure8Result, error) {
	apps := fiveTwoApps()
	pools := []int{1, 2, 4, 7, 16, 18, 22, 36}
	res := Figure8Result{Pools: pools, DeltaMBps: map[int]map[string]float64{}}
	for _, a := range apps {
		res.Apps = append(res.Apps, a.ID)
	}
	sort.Strings(res.Apps)
	for _, pool := range pools {
		mAlloc, err := (policy.MCKP{}).Allocate(apps, pool)
		if err != nil {
			return res, fmt.Errorf("experiments: Figure 8 MCKP@%d: %w", pool, err)
		}
		sAlloc, err := (policy.Static{}).Allocate(apps, pool)
		if err != nil {
			// STATIC needs at least one ION per app; skip pools where it
			// cannot place everyone (as the paper's plot starts at 1).
			continue
		}
		res.DeltaMBps[pool] = map[string]float64{}
		for _, a := range apps {
			mBW, _ := a.Curve.At(mAlloc[a.ID])
			sBW, _ := a.Curve.At(sAlloc[a.ID])
			res.DeltaMBps[pool][a.ID] = mBW.MBps() - sBW.MBps()
		}
	}
	return res, nil
}

// Table renders the result.
func (r Figure8Result) Table() Table {
	t := Table{
		Title:  "Figure 8 — per-application bandwidth delta MCKP−STATIC (MB/s)",
		Header: append([]string{"IONs"}, r.Apps...),
	}
	for _, pool := range r.Pools {
		deltas, ok := r.DeltaMBps[pool]
		if !ok {
			continue
		}
		row := []string{d(pool)}
		for _, app := range r.Apps {
			row = append(row, f1(deltas[app]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
