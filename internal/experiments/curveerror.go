package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"repro/internal/forge"
	"repro/internal/jobs"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/units"
)

// curveErrorDraws is how many distortion seeds the §5.3 queue runs under;
// each of the campaign's sets draws once.
const curveErrorDraws = 20

// Spread is a ratio's median and 5th percentile.
type Spread struct{ Median, P5 float64 }

func spread(xs []float64) Spread {
	return Spread{Median: stats.Median(xs), P5: stats.Quantile(xs, 0.05)}
}

// CurveErrorRow is one kind of curve error: the misinformed MCKP's
// aggregate over STATIC's, SIZE's and the informed MCKP's, in that order.
type CurveErrorRow struct {
	Error string
	// Sets spreads over every (set, pool) pair of the campaign, Queue over
	// the queue's distortion seeds.
	Sets, Queue [3]Spread
}

// CurveErrorResult measures how much curve error MCKP tolerates: MCKP
// decides on distorted curves, and every policy is scored on the true
// ones.
type CurveErrorResult struct {
	Sets  int
	Pools []int
	Rows  []CurveErrorRow
	// LeadSurvives is the verdict: at every σ ≤ 20 % and under the
	// one-step shift, the median on the sets and on the queue stays above
	// both STATIC's and SIZE's.
	LeadSurvives bool
}

// distortion is the curve a misinformed history hands MCKP for app. r is
// seeded by the distortion's seed and the application's ID, so a job
// keeps one curve across every decision of its run.
type distortion func(app policy.Application, r *rand.Rand) perfmodel.Curve

// misinformed is MCKP deciding on distorted curves. Whoever calls it
// scores the allocation on the true curves.
type misinformed struct {
	name    string
	seed    uint64
	distort distortion
}

func (m misinformed) Name() string { return m.name }

func (m misinformed) Allocate(apps []policy.Application, pool int) (policy.Allocation, error) {
	seen := make([]policy.Application, len(apps))
	for i, a := range apps {
		h := fnv.New64a()
		h.Write([]byte(a.ID))
		seen[i] = a
		seen[i].Curve = m.distort(a, rand.New(rand.NewPCG(m.seed, h.Sum64())))
	}
	return policy.MCKP{}.Allocate(seen, pool)
}

// noise multiplies every point by its own lognormal factor e^(σz).
func noise(sigma float64) distortion {
	return func(app policy.Application, r *rand.Rand) perfmodel.Curve {
		pts := app.Curve.Points()
		for i := range pts {
			pts[i].Bandwidth *= units.Bandwidth(math.Exp(sigma * r.NormFloat64()))
		}
		return perfmodel.NewCurve(pts...)
	}
}

// shift swaps the optimum's bandwidth with a neighbour's, up or down at
// random where both exist: the curve peaks one step off.
func shift(app policy.Application, r *rand.Rand) perfmodel.Curve {
	pts := app.Curve.Points()
	if len(pts) < 2 {
		return app.Curve
	}
	best := 0
	for i, pt := range pts {
		if pt.Bandwidth > pts[best].Bandwidth {
			best = i
		}
	}
	to := best + 1
	if to == len(pts) || (best > 0 && r.IntN(2) == 0) {
		to = best - 1
	}
	pts[best].Bandwidth, pts[to].Bandwidth = pts[to].Bandwidth, pts[best].Bandwidth
	return perfmodel.NewCurve(pts...)
}

// directKept is shift for the curves whose optimum uses forwarding: the
// history knows which jobs are best off on direct access and errs only on
// how many I/O nodes the others want.
func directKept(app policy.Application, r *rand.Rand) perfmodel.Curve {
	if app.Curve.Best().IONs == 0 {
		return app.Curve
	}
	return shift(app, r)
}

// wrongClass hands MCKP the curve of a random survey scenario whose
// optimum lies at another I/O-node count (another class of §2's
// distribution), scaled to the true peak: the right magnitude, the wrong
// shape.
func wrongClass(survey []perfmodel.Curve) distortion {
	return func(app policy.Application, r *rand.Rand) perfmodel.Curve {
		peak := app.Curve.Best()
		start := r.IntN(len(survey))
		for n := range survey {
			other := survey[(start+n)%len(survey)]
			pts, whole := app.Curve.Points(), true
			for i := range pts {
				pts[i].Bandwidth, whole = other.At(pts[i].IONs)
				if !whole {
					break
				}
			}
			wrong := perfmodel.NewCurve(pts...)
			if !whole || wrong.Best().IONs == peak.IONs || wrong.Best().Bandwidth <= 0 {
				continue
			}
			scale := float64(peak.Bandwidth / wrong.Best().Bandwidth)
			for i := range pts {
				pts[i].Bandwidth *= units.Bandwidth(scale)
			}
			return perfmodel.NewCurve(pts...)
		}
		return app.Curve
	}
}

// ExpCurveError runs Figure 3's 16-application sets (sets ≤ 0 selects
// 1,000; pools 16, 32, 64 and 128) and the §5.3 queue with MCKP deciding
// on distorted curves: seeded multiplicative noise at σ ∈ {5, 10, 20,
// 40 %}, every optimum shifted one step (and only the forwarded ones), and
// another pattern class's curve. STATIC, SIZE and the informed MCKP decide
// on the true curves.
// workers bounds the campaign's worker pool (≤ 0 selects GOMAXPROCS).
func ExpCurveError(sets, workers int) (CurveErrorResult, error) {
	if sets <= 0 {
		sets = 1000
	}
	errs := []struct {
		name    string
		distort distortion
		ruled   bool
	}{
		{"σ 5 %", noise(0.05), true},
		{"σ 10 %", noise(0.10), true},
		{"σ 20 %", noise(0.20), true},
		{"σ 40 %", noise(0.40), false},
		{"shift 1 step", shift, true},
		{"shift, direct kept", directKept, false},
		{"wrong class", wrongClass(perfmodel.Default().SurveyCurves()), false},
	}
	cfg := forge.DefaultConfig()
	cfg.Sets, cfg.Workers = sets, workers
	cfg.PoolSizes = []int{16, 32, 64, 128}
	cfg.Policies = []policy.Policy{policy.Static{}, policy.Proportional{}, policy.MCKP{}}
	for _, e := range errs {
		cfg.Policies = append(cfg.Policies, misinformed{name: e.name, seed: 1, distort: e.distort})
	}
	camp, err := forge.Run(cfg)
	if err != nil {
		return CurveErrorResult{}, err
	}
	bases := []string{"STATIC", "SIZE", "MCKP"}
	setRatios := func(name string) (out [3]Spread) {
		for b, base := range bases {
			var xs []float64
			for _, r := range camp.Results {
				for _, pool := range cfg.PoolSizes {
					if v, ok := r[base][pool]; ok && v > 0 {
						xs = append(xs, r[name][pool]/v)
					}
				}
			}
			out[b] = spread(xs)
		}
		return out
	}

	fig9, err := ExpFigure9()
	if err != nil {
		return CurveErrorResult{}, err
	}
	queue, err := jobs.PaperQueue()
	if err != nil {
		return CurveErrorResult{}, err
	}
	queueRatios := func(aggs []float64) (out [3]Spread) {
		for b, base := range bases {
			xs := make([]float64, len(aggs))
			for i, agg := range aggs {
				xs[i] = agg / fig9.AggregateMBps[base]
			}
			out[b] = spread(xs)
		}
		return out
	}

	res := CurveErrorResult{Sets: sets, Pools: cfg.PoolSizes, LeadSurvives: true}
	res.Rows = append(res.Rows, CurveErrorRow{Error: "none", Sets: setRatios("MCKP"),
		Queue: queueRatios([]float64{fig9.AggregateMBps["MCKP"]})})
	for _, e := range errs {
		aggs := make([]float64, curveErrorDraws)
		for seed := range aggs {
			sim, err := jobs.SimulateQueue(jobs.SimConfig{
				Jobs: queue, ComputeNodes: 96, IONs: 12,
				Policy: misinformed{name: e.name, seed: uint64(seed + 1), distort: e.distort},
			})
			if err != nil {
				return res, fmt.Errorf("experiments: curve error %s: %w", e.name, err)
			}
			aggs[seed] = sim.Aggregate.MBps()
		}
		row := CurveErrorRow{Error: e.name, Sets: setRatios(e.name), Queue: queueRatios(aggs)}
		if e.ruled {
			for _, s := range [...]Spread{row.Sets[0], row.Sets[1], row.Queue[0], row.Queue[1]} {
				res.LeadSurvives = res.LeadSurvives && s.Median > 1
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r CurveErrorResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Curve error — misinformed MCKP ÷ STATIC, SIZE and informed MCKP, median (p5); "+
			"%d sets × pools %v, and the §5.3 queue × %d draws", r.Sets, r.Pools, curveErrorDraws),
		Header: []string{"Error", "Sets ÷STATIC", "÷SIZE", "÷MCKP", "Queue ÷STATIC", "÷SIZE", "÷MCKP"},
	}
	for _, row := range r.Rows {
		cells := []string{row.Error}
		for _, s := range append(row.Sets[:], row.Queue[:]...) {
			cells = append(cells, fmt.Sprintf("%.2f (%.2f)", s.Median, s.P5))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}
