package jobs

import (
	"fmt"
	"math/rand"

	"repro/internal/perfmodel"
)

// effectivePool computes the arbitration pool. Under RecruitIdle it is
// IONs plus every free compute node; the free nodes counted here are idle
// by definition: admit() ran first, so nothing in the queue fits in them.
// Recruited nodes return to the compute pool implicitly when the next
// arbitration sees a smaller free set (the simulator arbitrates exactly
// when job membership changes, so a recruited node is never both
// computing and forwarding).
func (s *sim) effectivePool() int {
	if !s.cfg.RecruitIdle {
		return s.cfg.IONs
	}
	return s.cfg.IONs + s.free
}

// RandomQueue generates a reproducible random job queue from the Table 3
// applications, the way the paper's queue generator builds the §5.3
// workloads: n jobs drawn uniformly, submissions separated by exponential
// gaps with the given mean (seconds).
func RandomQueue(seed int64, n int, meanGap float64) ([]QueuedJob, error) {
	if n <= 0 {
		return nil, fmt.Errorf("jobs: queue length must be positive, got %d", n)
	}
	specs := perfmodel.EvaluationApps()
	rng := rand.New(rand.NewSource(seed))
	count := map[string]int{}
	var out []QueuedJob
	arrival := 0.0
	for i := 0; i < n; i++ {
		spec := specs[rng.Intn(len(specs))]
		count[spec.Label]++
		out = append(out, QueuedJob{
			ID:      fmt.Sprintf("%s#%d", spec.Label, count[spec.Label]),
			Spec:    spec,
			Arrival: arrival,
		})
		arrival += rng.ExpFloat64() * meanGap
	}
	return out, nil
}
