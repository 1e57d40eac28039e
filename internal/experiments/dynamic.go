package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/jobs"
	"repro/internal/mckp"
	"repro/internal/policy"
)

// Figure9Result holds the dynamic-queue experiment: per-application and
// aggregate bandwidth under the four §5.3 policies on 96 compute nodes and
// 12 I/O nodes, no direct PFS access.
type Figure9Result struct {
	Policies []string
	// PerJobMBps[policy][jobID].
	PerJobMBps map[string]map[string]float64
	// AggregateMBps[policy] is the Equation-2 aggregate.
	AggregateMBps map[string]float64
	// MakespanSec[policy].
	MakespanSec map[string]float64
	// Reallocations[policy].
	Reallocations map[string]int
	// MCKPOverStatic is the §5.3 headline ratio (paper: 1.9×).
	MCKPOverStatic float64
	JobIDs         []string
}

// ExpFigure9 runs the paper's queue under ONE, STATIC, SIZE, and MCKP.
func ExpFigure9() (Figure9Result, error) {
	queue, err := jobs.PaperQueue()
	if err != nil {
		return Figure9Result{}, err
	}
	type entry struct {
		name   string
		pol    policy.Policy
		sticky bool
	}
	entries := []entry{
		{"ONE", policy.One{}, true},
		{"STATIC", policy.Static{SystemCompute: 96, SystemIONs: 12}, true},
		{"SIZE", policy.Proportional{}, false},
		{"MCKP", policy.MCKP{}, false},
	}
	res := Figure9Result{
		PerJobMBps:    map[string]map[string]float64{},
		AggregateMBps: map[string]float64{},
		MakespanSec:   map[string]float64{},
		Reallocations: map[string]int{},
	}
	for _, j := range queue {
		res.JobIDs = append(res.JobIDs, j.ID)
	}
	for _, e := range entries {
		res.Policies = append(res.Policies, e.name)
		sim, err := jobs.SimulateQueue(jobs.SimConfig{
			Jobs:         queue,
			ComputeNodes: 96,
			IONs:         12,
			Policy:       e.pol,
			Sticky:       e.sticky,
			AllowDirect:  false,
		})
		if err != nil {
			return res, fmt.Errorf("experiments: Figure 9 %s: %w", e.name, err)
		}
		per := map[string]float64{}
		for id, o := range sim.PerJob {
			per[id] = o.Bandwidth.MBps()
		}
		res.PerJobMBps[e.name] = per
		res.AggregateMBps[e.name] = sim.Aggregate.MBps()
		res.MakespanSec[e.name] = sim.Makespan
		res.Reallocations[e.name] = sim.Reallocations
	}
	res.MCKPOverStatic = res.AggregateMBps["MCKP"] / res.AggregateMBps["STATIC"]
	return res, nil
}

// Table renders the result.
func (r Figure9Result) Table() Table {
	t := Table{
		Title:  "Figure 9 — dynamic queue on 96 compute + 12 I/O nodes (per-job MB/s)",
		Header: append([]string{"Job"}, r.Policies...),
	}
	for _, id := range r.JobIDs {
		row := []string{id}
		for _, p := range r.Policies {
			row = append(row, f1(r.PerJobMBps[p][id]))
		}
		t.Rows = append(t.Rows, row)
	}
	agg := []string{"AGGREGATE"}
	mk := []string{"makespan (s)"}
	for _, p := range r.Policies {
		agg = append(agg, f1(r.AggregateMBps[p]))
		mk = append(mk, f1(r.MakespanSec[p]))
	}
	t.Rows = append(t.Rows, agg, mk)
	return t
}

// SolverTimingResult measures MCKP solve times at the paper's two scales:
// the live §5.3 case (paper: 399 µs) and 512 jobs × 256 I/O nodes (paper:
// 2.7 s).
type SolverTimingResult struct {
	LiveCase      time.Duration
	PaperScale    time.Duration
	LiveClasses   int
	PaperClasses  int
	PaperCapacity int
}

// ExpSolverTiming times the DP solver on both instance sizes.
func ExpSolverTiming() (SolverTimingResult, error) {
	res := SolverTimingResult{LiveClasses: 6, PaperClasses: 512, PaperCapacity: 256}

	apps := fiveTwoApps()
	start := time.Now()
	if _, err := (policy.MCKP{}).Allocate(apps, 12); err != nil {
		return res, err
	}
	res.LiveCase = time.Since(start)

	rng := rand.New(rand.NewSource(99))
	prob := mckp.Problem{Capacity: 256}
	for i := 0; i < 512; i++ {
		c := mckp.Class{Label: fmt.Sprintf("job%03d", i)}
		for _, w := range []int{0, 1, 2, 4, 8} {
			c.Items = append(c.Items, mckp.Item{Weight: w, Value: rng.Float64() * 5000})
		}
		prob.Classes = append(prob.Classes, c)
	}
	start = time.Now()
	if _, err := mckp.SolveDP(prob); err != nil {
		return res, err
	}
	res.PaperScale = time.Since(start)
	return res, nil
}

// Table renders the result.
func (r SolverTimingResult) Table() Table {
	return Table{
		Title:  "§5.3 — MCKP solver cost",
		Header: []string{"Instance", "Classes", "Capacity", "Measured", "Paper"},
		Rows: [][]string{
			{"live six-app case", d(r.LiveClasses), "12", r.LiveCase.String(), "399µs"},
			{"512 jobs × 256 IONs", d(r.PaperClasses), d(r.PaperCapacity), r.PaperScale.String(), "2.7s"},
		},
	}
}

// PolicyHeadlinesResult carries the §3.2 ZERO/ONE/ORACLE statistics.
type PolicyHeadlinesResult struct {
	Sets                       int
	OneVsZeroMedianSlowdownPct float64
	OracleVsZeroMinBoostPct    float64
	OracleVsZeroMedianBoostPct float64
	OracleVsZeroMaxBoostPct    float64
}

// ExpPolicyHeadlines computes the §3.2 headline statistics from a Figure 2
// campaign result (avoids rerunning the campaign).
func ExpPolicyHeadlines(fig2 Figure2Result) PolicyHeadlinesResult {
	h := fig2.Campaign.ComputeHeadlines()
	return PolicyHeadlinesResult{
		Sets:                       fig2.Campaign.Config.Sets,
		OneVsZeroMedianSlowdownPct: h.OneVsZeroMedianSlowdownPct,
		OracleVsZeroMinBoostPct:    h.OracleVsZeroMinBoostPct,
		OracleVsZeroMedianBoostPct: h.OracleVsZeroMedianBoostPct,
		OracleVsZeroMaxBoostPct:    h.OracleVsZeroMaxBoostPct,
	}
}

// Table renders the result.
func (r PolicyHeadlinesResult) Table() Table {
	return Table{
		Title:  fmt.Sprintf("§3.2 — headline statistics (%d sets)", r.Sets),
		Header: []string{"Statistic", "Measured", "Paper"},
		Rows: [][]string{
			{"ONE vs ZERO median slowdown %", f2(r.OneVsZeroMedianSlowdownPct), "82.11"},
			{"ORACLE vs ZERO min boost %", f2(r.OracleVsZeroMinBoostPct), "0.83"},
			{"ORACLE vs ZERO median boost %", f2(r.OracleVsZeroMedianBoostPct), "25.63"},
			{"ORACLE vs ZERO max boost %", f2(r.OracleVsZeroMaxBoostPct), "121.68"},
		},
	}
}
