package experiments

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/policy"
)

// AblationDynamicResult isolates the value of *dynamic* reallocation — the
// paper's differentiator against DFRA (Ji et al., FAST'19), which sizes an
// application's forwarding allocation once, when the job starts, and never
// adapts afterwards. Both variants use the same MCKP policy; only the
// stickiness differs.
type AblationDynamicResult struct {
	// DynamicMBps and FixedMBps are the Equation-2 aggregates of the
	// §5.3 queue under adaptive and fixed-at-start MCKP.
	DynamicMBps float64
	FixedMBps   float64
	// Advantage is Dynamic/Fixed.
	Advantage float64
	// DynamicReallocs counts the adaptive run's mid-job reallocations.
	DynamicReallocs int
	// RecruitedMBps is the aggregate when, additionally, idle compute
	// nodes are recruited as temporary I/O nodes (the paper's future
	// work) on a machine without a dedicated forwarding partition.
	RecruitedMBps float64
	// NoForwardingMBps is that machine's baseline (direct access only).
	NoForwardingMBps float64
}

// ExpAblationDynamic runs the §5.3 queue under (a) dynamic MCKP, (b)
// fixed-at-start (DFRA-style) MCKP, and (c) the recruiting extension.
func ExpAblationDynamic() (AblationDynamicResult, error) {
	queue, err := jobs.PaperQueue()
	if err != nil {
		return AblationDynamicResult{}, err
	}
	base := jobs.SimConfig{
		Jobs:         queue,
		ComputeNodes: 96,
		IONs:         12,
		Policy:       policy.MCKP{},
		AllowDirect:  false,
	}

	dynamic, err := jobs.SimulateQueue(base)
	if err != nil {
		return AblationDynamicResult{}, fmt.Errorf("experiments: dynamic: %w", err)
	}
	fixedCfg := base
	fixedCfg.Sticky = true
	fixed, err := jobs.SimulateQueue(fixedCfg)
	if err != nil {
		return AblationDynamicResult{}, fmt.Errorf("experiments: fixed: %w", err)
	}

	// Future-work variant: no dedicated forwarding partition at all.
	noFwdCfg := base
	noFwdCfg.IONs = 0
	noFwdCfg.AllowDirect = true
	noFwd, err := jobs.SimulateQueue(noFwdCfg)
	if err != nil {
		return AblationDynamicResult{}, fmt.Errorf("experiments: no-forwarding: %w", err)
	}
	recruitCfg := noFwdCfg
	recruitCfg.RecruitIdle = true
	recruited, err := jobs.SimulateQueue(recruitCfg)
	if err != nil {
		return AblationDynamicResult{}, fmt.Errorf("experiments: recruit: %w", err)
	}

	res := AblationDynamicResult{
		DynamicMBps:      dynamic.Aggregate.MBps(),
		FixedMBps:        fixed.Aggregate.MBps(),
		DynamicReallocs:  dynamic.Reallocations,
		RecruitedMBps:    recruited.Aggregate.MBps(),
		NoForwardingMBps: noFwd.Aggregate.MBps(),
	}
	if res.FixedMBps > 0 {
		res.Advantage = res.DynamicMBps / res.FixedMBps
	}
	return res, nil
}

// Table renders the result.
func (r AblationDynamicResult) Table() Table {
	return Table{
		Title:  "Ablation — dynamic reallocation and idle-node recruiting",
		Header: []string{"Variant", "Aggregate MB/s", "Notes"},
		Rows: [][]string{
			{"MCKP dynamic (paper)", f1(r.DynamicMBps), fmt.Sprintf("%d mid-job reallocations", r.DynamicReallocs)},
			{"MCKP fixed-at-start (DFRA-style)", f1(r.FixedMBps), fmt.Sprintf("dynamic advantage %.2fx", r.Advantage)},
			{"no forwarding (direct only)", f1(r.NoForwardingMBps), "machine without I/O nodes"},
			{"idle-node recruiting (future work)", f1(r.RecruitedMBps), "idle compute nodes as temporary IONs"},
		},
	}
}
