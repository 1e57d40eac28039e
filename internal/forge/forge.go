// Package forge is the reproduction of the paper's FORGE-based policy
// simulation (§3.2): it samples sets of applications from the 189-scenario
// MareNostrum 4 survey, lets every arbitration policy allocate a pool of
// I/O nodes to each set, and aggregates the resulting bandwidth, producing
// the data behind Figures 2 and 3 and the §3.2 headline statistics.
//
// Like the paper, an "application" here is one of the surveyed access
// patterns, ready to run; its bandwidth curve comes from the performance
// model standing in for the MN4 measurements.
package forge

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/stats"
)

// Config controls a simulation campaign.
type Config struct {
	// Sets is the number of random application sets (the paper uses
	// 10,000).
	Sets int
	// AppsPerSet is the number of applications drawn per set (paper: 16).
	AppsPerSet int
	// PoolSizes are the available-I/O-node counts to sweep (the paper
	// sweeps 0..128 in steps of 8).
	PoolSizes []int
	// Seed makes the sampling reproducible.
	Seed int64
	// Model predicts scenario bandwidth; nil means the calibrated default.
	Model *perfmodel.Model
	// Policies is the roster every set is evaluated under, by distinct
	// names; nil selects Policies(), the §3.2 one.
	Policies []policy.Policy
	// Workers bounds the number of goroutines evaluating application sets
	// concurrently; 0 (or negative) selects GOMAXPROCS. Every worker count
	// produces byte-identical results: set s is always sampled from its own
	// RNG stream seeded with Seed+s, never from a shared generator.
	Workers int
}

// DefaultConfig returns the paper's §3.2 campaign parameters.
func DefaultConfig() Config {
	sizes := make([]int, 0, 17)
	for n := 0; n <= 128; n += 8 {
		sizes = append(sizes, n)
	}
	return Config{Sets: 10000, AppsPerSet: 16, PoolSizes: sizes, Seed: 42}
}

// SetResult is one application set's aggregate bandwidth (MB/s) per policy
// per pool size. A NaN-free representation: missing entries mean the policy
// was not applicable at that pool size (e.g. STATIC with zero I/O nodes).
type SetResult map[string]map[int]float64

// Campaign is the outcome of a full simulation run.
type Campaign struct {
	Config  Config
	Results []SetResult
	// Policies records the policy names in presentation order.
	Policies []string
}

// scenarios converts the survey into arbitration applications.
func scenarios(m *perfmodel.Model) []policy.Application {
	pats := pattern.MN4Survey()
	curves := m.SurveyCurves()
	apps := make([]policy.Application, len(pats))
	for i, p := range pats {
		apps[i] = policy.Application{
			ID:        fmt.Sprintf("s%03d", i),
			Nodes:     p.Nodes,
			Processes: p.Processes(),
			Curve:     curves[i],
		}
	}
	return apps
}

// Policies returns the §3.2 policy roster in the paper's presentation
// order.
func Policies() []policy.Policy {
	return []policy.Policy{
		policy.Zero{},
		policy.One{},
		policy.Static{},
		policy.Proportional{},
		policy.Proportional{ByProcesses: true},
		policy.MCKP{},
		policy.Oracle{},
	}
}

// Run executes the campaign: cfg.Sets random draws of cfg.AppsPerSet
// scenarios, each evaluated under every policy and pool size. Sets are
// fanned out over cfg.Workers goroutines; because each set draws from its
// own seeded RNG stream, the outcome is identical for every worker count.
func Run(cfg Config) (*Campaign, error) {
	if cfg.Sets <= 0 || cfg.AppsPerSet <= 0 || len(cfg.PoolSizes) == 0 {
		return nil, fmt.Errorf("forge: invalid config %+v", cfg)
	}
	all := scenarios(campaignModel(cfg))
	if cfg.AppsPerSet > len(all) {
		return nil, fmt.Errorf("forge: set size %d exceeds %d scenarios", cfg.AppsPerSet, len(all))
	}
	pols := cfg.Policies
	if pols == nil {
		pols = Policies()
	}
	camp := &Campaign{Config: cfg, Results: make([]SetResult, cfg.Sets)}
	for _, p := range pols {
		camp.Policies = append(camp.Policies, p.Name())
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Sets {
		workers = cfg.Sets
	}

	var (
		next atomic.Int64 // next set index to claim
		wg   sync.WaitGroup

		// The first error by set order, so failures are as deterministic
		// as the results themselves. errSet doubles as the abort signal.
		errMu  sync.Mutex
		runErr error
		errSet = int64(cfg.Sets)
	)
	fail := func(s int, err error) {
		errMu.Lock()
		if int64(s) < errSet {
			errSet, runErr = int64(s), err
		}
		errMu.Unlock()
	}
	aborted := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return errSet < int64(cfg.Sets)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= cfg.Sets || aborted() {
					return
				}
				res, err := runSet(cfg, all, pols, s)
				if err != nil {
					fail(s, err)
					return
				}
				camp.Results[s] = res
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return camp, nil
}

// campaignModel resolves cfg's performance model (nil selects the
// calibrated default).
func campaignModel(cfg Config) *perfmodel.Model {
	if cfg.Model != nil {
		return cfg.Model
	}
	return perfmodel.Default()
}

// runSet samples and evaluates one application set. It owns a private RNG
// stream (seeded with cfg.Seed+s), making it independent of every other set
// and safe to run from any goroutine.
func runSet(cfg Config, all []policy.Application, pols []policy.Policy, s int) (SetResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(s)))
	idx := rng.Perm(len(all))[:cfg.AppsPerSet]
	apps := make([]policy.Application, 0, cfg.AppsPerSet)
	for j, i := range idx {
		a := all[i]
		// Distinct IDs: the same scenario may repeat across sets,
		// and IDs must be unique within a set.
		a.ID = fmt.Sprintf("a%02d-%s", j, a.ID)
		apps = append(apps, a)
	}
	res := make(SetResult, len(pols))
	for _, p := range pols {
		series := make(map[int]float64, len(cfg.PoolSizes))
		for _, pool := range cfg.PoolSizes {
			alloc, err := p.Allocate(apps, pool)
			if err != nil {
				continue // policy not applicable at this pool size
			}
			bw, err := policy.SumBandwidth(apps, alloc)
			if err != nil {
				return nil, fmt.Errorf("forge: set %d: %s at pool %d: %w", s, p.Name(), pool, err)
			}
			series[pool] = bw.GBps()
		}
		res[p.Name()] = series
	}
	return res, nil
}

// MedianSeries produces the Figure 2 data: for each policy, the median
// across sets of the aggregate bandwidth (GB/s) at each pool size.
// Pool sizes where a policy was never applicable are omitted.
func (c *Campaign) MedianSeries() map[string]map[int]float64 {
	out := make(map[string]map[int]float64, len(c.Policies))
	for _, name := range c.Policies {
		series := make(map[int]float64)
		for _, pool := range c.Config.PoolSizes {
			var vals []float64
			for _, r := range c.Results {
				if v, ok := r[name][pool]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				series[pool] = stats.Median(vals)
			}
		}
		out[name] = series
	}
	return out
}

// RatioBand is a min/median/max band of per-set ratios at one pool size.
type RatioBand struct {
	Pool                 int
	Min, Median, Max     float64
	Mean                 float64
	SetsBelowParityCount int // sets where the ratio dipped below 1.0
}

// RatioSeries produces the Figure 3 data: for each pool size, the
// distribution of the per-set ratio between two policies' aggregates
// (num ÷ den, the paper uses MCKP ÷ STATIC).
func (c *Campaign) RatioSeries(num, den string) []RatioBand {
	var out []RatioBand
	for _, pool := range c.Config.PoolSizes {
		var ratios []float64
		below := 0
		for _, r := range c.Results {
			n, okN := r[num][pool]
			d, okD := r[den][pool]
			if !okN || !okD || d == 0 {
				continue
			}
			rat := n / d
			if rat < 1 {
				below++
			}
			ratios = append(ratios, rat)
		}
		if len(ratios) == 0 {
			continue
		}
		out = append(out, RatioBand{
			Pool:                 pool,
			Min:                  stats.Min(ratios),
			Median:               stats.Median(ratios),
			Max:                  stats.Max(ratios),
			Mean:                 stats.Mean(ratios),
			SetsBelowParityCount: below,
		})
	}
	return out
}

// Headlines summarizes the §3.2 comparison statistics.
type Headlines struct {
	// OneVsZeroMedianSlowdownPct is the median per-set slowdown of the
	// ONE policy relative to ZERO (paper: 82.11%).
	OneVsZeroMedianSlowdownPct float64
	// OracleVsZero{Min,Median,Max}BoostPct is the per-set improvement of
	// ORACLE over ZERO (paper: 0.83% / 25.63% / 121.68%).
	OracleVsZeroMinBoostPct    float64
	OracleVsZeroMedianBoostPct float64
	OracleVsZeroMaxBoostPct    float64
}

// ComputeHeadlines derives the §3.2 headline statistics from the campaign.
// Ratios are computed at the largest pool size, where every policy is
// applicable and unconstrained, matching the paper's framing of ZERO, ONE
// and ORACLE as pool-independent diagnostics.
func (c *Campaign) ComputeHeadlines() Headlines {
	pool := c.Config.PoolSizes[len(c.Config.PoolSizes)-1]
	var slowdowns, boosts []float64
	for _, r := range c.Results {
		zero, okZ := r["ZERO"][pool]
		one, okO := r["ONE"][pool]
		oracle, okR := r["ORACLE"][pool]
		if okZ && okO && one > 0 {
			slowdowns = append(slowdowns, (zero/one-1)*100)
		}
		if okZ && okR && zero > 0 {
			boosts = append(boosts, (oracle/zero-1)*100)
		}
	}
	return Headlines{
		OneVsZeroMedianSlowdownPct: stats.Median(slowdowns),
		OracleVsZeroMinBoostPct:    stats.Min(boosts),
		OracleVsZeroMedianBoostPct: stats.Median(boosts),
		OracleVsZeroMaxBoostPct:    stats.Max(boosts),
	}
}
